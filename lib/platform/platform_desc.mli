(** Data-driven platform descriptions.

    A description names the clusters of an SoC (in sensor order — the
    per-cluster noise draws and trace columns follow this index order),
    gives each a core count, an OPP table, power-model coefficients and
    a CPI law, and records which cluster hosts the pinned QoS
    application.  {!Soc.create}, the per-cluster event families
    ({!Spectr.Events.for_platform}), the parametric spec automata and
    the scenario/fleet surfaces all derive their dimensions from one of
    these records — the Exynos 5422's Big|Little dichotomy is just
    {!exynos5422}, the 2-cluster instance.

    Descriptions come from three places: built-ins ({!exynos5422},
    {!pixel8pro}, {!k_cluster}), code ({!create}), or a CSV file in the
    ARM-based-Power-style measurement format ({!of_csv_file}), with
    precise line-numbered parse errors.

    Descriptions are immutable values.  {!create} copies the cluster
    array it is given, and every other constructor (the built-ins,
    {!k_cluster}, {!degrade}, the CSV parser) goes through it, so a
    description never changes after it is built.  That is what lets
    {!create} compute the {!digest} once: callers must not write into
    the array returned by {!clusters} or into its {!Opp} tables. *)

type cpi_law =
  | Host_law
      (** The QoS-hosting cluster: CPI-law coefficients derived from the
          workload ({!Perf_model.base_coefficients} over this cluster's
          OPP range). *)
  | Workload_ratio of float
      (** [a = a_host / (workload.little_ipc_ratio * r)], [b] shared —
          the workload's own in-order/out-of-order IPC ratio, scaled.
          The Exynos Little cluster is [Workload_ratio 1.0]. *)
  | Fixed_ratio of float
      (** [a = a_host / r], [b] shared — a workload-independent relative
          IPC (calibrated platforms). *)
  | Absolute of { cpi_a : float; cpi_b : float }
      (** Fully calibrated CPI law: [IPS(f) = f·1e9 / (a + b·κ·f)]. *)

type cluster = {
  cl_name : string;
      (** Lowercase alphanumeric identifier; feeds event names
          ([increase<Name>Power]) and trace columns ([<name>_power]). *)
  cores : int;
  opp : Opp.t;
  power : Power_model.params;
  cpi : cpi_law;
}

type thermal = {
  ambient_c : float;
  resistance_c_per_w : float;
  tau_s : float;
}

type t

val create :
  name:string -> clusters:cluster array -> host:int -> thermal:thermal -> t
(** Validates the fields, copies [clusters] and digests the canonical
    serialization once.  Raises [Invalid_argument] with a precise message
    on invalid names, duplicate clusters, out-of-range host index or
    core counts, or non-positive thermal parameters. *)

val name : t -> string
val clusters : t -> cluster array
(** The description's own array, not a copy: read it, never write it. *)

val num_clusters : t -> int
val host : t -> int
(** Index of the QoS-hosting cluster. *)

val thermal : t -> thermal
val cluster : t -> int -> cluster
val cluster_name : t -> int -> string
val total_cores : t -> int
val core_offset : t -> int -> int
(** First global core index of cluster [i]; cores of cluster [i] are
    [core_offset t i .. core_offset t i + (cluster t i).cores - 1]. *)

val find_cluster : t -> string -> int option

(** {1 Built-ins} *)

val exynos5422 : t
(** The paper's ODROID-XU3: big (host) + little, 4 cores each.  The
    description-driven pipeline is byte-identical to the pre-description
    build on this platform. *)

val pixel8pro : t
(** 3-cluster Tensor G3 topology: little (4x A510), big (4x A715,
    host), prime (1x X3). *)

val k_cluster : ?cores_per_cluster:int -> int -> t
(** Synthetic k-cluster platform ([1..16]) for synthesis-scale and
    fleet experiments; cluster 0 hosts. *)

val builtins : unit -> t list

(** {1 Degradation}

    Permanent-fault reconfiguration (FDIR) re-derives specs, plant
    models and gains from a {e degraded} description — a first-class
    description with its own distinct {!digest}, so every downstream
    memo key (design flow, synthesis cache, checkpoint variant tags)
    separates healthy from degraded automatically. *)

type degradation =
  | Remove_cluster of int
      (** The cluster is permanently dead: drop it from the description
          (host index re-mapped; name suffixed ["!no-<cluster>"]). *)
  | Pin_opp of { cluster : int; freq_mhz : int }
      (** The cluster's DVFS rail is latched: collapse its OPP table to
          the single point nearest [freq_mhz] (name suffixed
          ["!<cluster>@<mhz>"]). *)

val degrade : t -> degradation -> t
(** Raises [Invalid_argument] when the index is out of range, the
    cluster to remove hosts the QoS application (a dead host is
    unrecoverable — the manager falls back to open loop instead), or it
    is the last cluster. *)

val max_power_estimate : t -> float
(** Peak chip power: every cluster at its top OPP, all cores active,
    utilization 1.  The fleet layer reports degraded capacity as the
    ratio of a degraded description's peak to the healthy one's. *)

(** {1 Serialization} *)

type parse_error = { line : int; msg : string }

val pp_parse_error : Format.formatter -> parse_error -> unit

val of_csv_string : string -> (t, parse_error) result
(** Parse the platform CSV format (see DESIGN.md §15): [platform,<name>],
    [thermal,<ambient>,<c_per_w>,<tau>], [host,<cluster>], one
    [cluster,<name>,<cores>,<cdyn>,<leak>,<gated>,<uncore>,<cpi-law>]
    row per cluster and one [opp,<cluster>,<freq_mhz>,<volt>] row per
    operating point.  [#] comments and blank lines are skipped.  Errors
    carry the offending line number ([line = 0] for cross-row
    consistency failures). *)

val of_csv_file : string -> (t, parse_error) result

val to_csv_string : t -> string
(** Canonical serialization; [of_csv_string (to_csv_string t)]
    round-trips. *)

val digest : t -> string
(** Hex MD5 of the canonical serialization — the platform identity used
    in design-flow memo keys and checkpoint variant tags.  Computed once
    by {!create}; this is a field read, so memo lookups keyed on it cost
    nothing per call.  Always equals
    [Digest.to_hex (Digest.string (to_csv_string t))]. *)

val describe : t -> string
(** Human-readable summary for [spectr_cli platforms]. *)

val cpi_law_to_string : cpi_law -> string
val cpi_law_of_string : string -> cpi_law option
