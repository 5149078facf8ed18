(** Whole-node death/restart campaigns.

    The {!Engine} kill drill restarts a {e manager} mid-scenario while
    the platform keeps running.  A node-kill drill is the same fault one
    level up: the entire node — SoC, heartbeat monitor, manager — goes
    dark, serves nothing and draws nothing for a downtime window, then
    reboots with a fresh platform and its manager restored from the
    node's last {!Spectr.Manager.persist} checkpoint
    ({!Spectr_fleet.Node.restart}).  The drill's invariant is the
    fleet-layer admission contract: a rebooted node must come back
    power-compliant under the cap it was assigned before it died, within
    a bounded number of controller periods.

    Campaigns are pure functions of an integer seed — each drill derives
    independently (SplitMix-style mixing, as in {!Campaign}), the sweep
    fans over {!Spectr_exec.Parmap} in submission order, and every
    outcome carries a trace digest, so a whole report is byte-identical
    run to run for any worker count. *)

(** {1 Drills} *)

type drill = {
  d_index : int;  (** Position in the campaign. *)
  d_seed : int64;  (** Node seed (SoC noise stream of its first life). *)
  d_workload : string;  (** {!Spectr_platform.Benchmarks.by_name} key. *)
  d_cap : float;  (** Cap assigned before the kill and still in force
                      after the reboot (W). *)
  d_pre_ticks : int;  (** Counted ticks of healthy running before the
                          kill; the last checkpoint lands inside them. *)
  d_checkpoint_every : int;
      (** Checkpoint cadence in ticks — the kill's staleness is whatever
          remainder the cadence leaves, as in a real cluster. *)
  d_down_ticks : int;  (** Ticks the node stays dark (accruing debt). *)
  d_post_ticks : int;  (** Observation window after the reboot. *)
  d_deadline : int;
      (** Recovery deadline: the node must reach (and keep) power
          compliance within this many post-reboot ticks. *)
}

type outcome = {
  o_drill : drill;
  o_checkpointed : bool;  (** At least one checkpoint was taken. *)
  o_recovery_ticks : int option;
      (** First post-reboot tick from which the 1 s moving average of
          true power stays within
          [cap × ]{!Spectr.Metrics.power_allowance} for the rest of the
          window; [None] = never settled.  The average, not the raw
          tick, is the contract: a cap falling between the chip's
          quantized OPP power levels makes the supervisor dither around
          it, and the mean is what the fleet coordinator budgets on. *)
  o_recovered : bool;  (** [o_recovery_ticks] exists and meets the
                           deadline. *)
  o_peak_after : float;  (** Peak true power in the post window (W). *)
  o_debt : float;  (** Lifetime QoS debt at the end of the drill (s). *)
  o_digest : string;
      (** MD5 hex over canonical per-tick power lines (every counted
          tick, hex floats) plus the node's end-of-life report — equal
          digests mean a byte-identical drill. *)
}

(** {1 Campaigns} *)

type spec = {
  campaign_seed : int;
  drills : int;
  cap_lo : float;  (** Assigned caps draw uniformly from this range — *)
  cap_hi : float;  (** starved and comfortable nodes both get drilled. *)
}

val default_spec : ?seed:int -> ?drills:int -> unit -> spec
(** 32 drills, caps in [1.6, 3.2] W under the default 5 W node TDP.
    Raises [Invalid_argument] on [drills <= 0] or a bad cap range. *)

val drill_of_spec : spec -> int -> drill
(** The [index]-th drill — a pure function of [(spec, index)].  Raises
    [Invalid_argument] outside [0, drills). *)

type report = {
  r_spec : spec;
  r_outcomes : outcome list;  (** Campaign order. *)
  r_failed : int;  (** Drills that missed the recovery deadline. *)
  r_digest : string;  (** MD5 over every outcome digest — the campaign's
                          replay-determinism currency. *)
}

val run : ?pool:Spectr_exec.Pool.t -> spec -> report
(** Fan the campaign over the worker pool; byte-identical for any job
    count. *)

val summary : report -> string
(** Human-readable table: one line per drill plus the failure tally. *)
