(** Campaign execution: fan a campaign's cells over the process-wide
    worker pool, aggregate per-variant and per-invariant statistics, and
    attach a decision-log tail to each finding.

    Deterministic end to end: cells are pure functions of the campaign
    seed, each cell run is deterministic, and {!Spectr_exec.Parmap}
    preserves submission order — so the report (and its printed
    {!summary}) is byte-identical run to run for a given spec,
    independent of the worker count. *)

type finding = {
  f_outcome : Engine.outcome;
  f_log_tail : string list;
      (** Tail of the {!Spectr_obs.Decision_log} JSONL from a
          deterministic instrumented re-run of the failing cell — what
          the supervisory layer decided leading up to the violation. *)
}

type variant_stat = {
  vs_variant : Campaign.variant;
  vs_cells : int;
  vs_violating : int;  (** Cells with at least one violation. *)
  vs_violations : int;  (** Total findings across those cells. *)
}

type report = {
  r_spec : Campaign.spec;
  r_outcomes : Engine.outcome list;  (** All cells, campaign order. *)
  r_variant_stats : variant_stat list;  (** In [spec.variants] order. *)
  r_kind_counts : (Invariants.kind * int) list;
      (** Violating-cell count per invariant kind (non-zero only). *)
  r_findings : finding list;  (** First [max_findings] failing cells. *)
}

val run : ?max_findings:int -> Campaign.spec -> report
(** Execute the campaign.  The parallel sweep runs with observability
    off (the decision log is process-global); up to [max_findings]
    (default 10) failing cells are then re-run sequentially with
    instrumentation on to harvest the last 40 decision-log lines each.
    Raises [Failure], naming the cell and both digests, when a re-run's
    trace digest differs from the sweep's.

    The sweep runs through a warm {!Arena}: one manager per (domain,
    variant), reset between cells — outcomes are identical to cold
    cells, the arena only removes per-cell construction cost. *)

val violating_cells : report -> variant:Campaign.variant -> int

val summary : report -> string
(** Multi-line human-readable report: per-variant table, per-invariant
    tallies, and each finding with its fault schedule and log tail. *)
