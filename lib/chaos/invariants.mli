(** Runtime invariant monitors for the chaos engine.

    One monitor rides along a {!Spectr.Scenario} runner and is checked
    after every tick.  Each invariant knows when it may legitimately be
    suspended — a power cap cannot be enforced while the DVFS driver
    ignores commands, and QoS cannot re-converge while a fault is still
    active — so a violation is a genuine safety-property failure, not a
    transient at a phase boundary.

    The compliance clocks reset at every {e disturbance instant}: run
    start, phase boundaries, fault onsets and clearances, and the
    kill/restart drill.  The power cap is cumulative: a finding fires
    once its over-cap time within one disturbance epoch passes
    {!limits.excess_budget_s}.  QoS must fail for
    {!limits.sustain_ticks} consecutive ticks before a finding is
    emitted.  Every episode is reported once, not once per tick. *)

open Spectr_platform

type kind =
  | Power_cap
      (** Ground-truth chip power spent more than [excess_budget_s]
          cumulative seconds above the guardbanded envelope within one
          disturbance epoch (excluding the [settle_s] grace after the
          epoch starts), with no actuator fault active.  Cumulative, not
          consecutive: a controller oscillating around the cap on a
          lying sensor is a violation even though no single excursion
          lasts long.  Sensor faults do {e not} suspend this check —
          surviving a lying sensor is what the guards are for. *)
  | Qos_reconvergence
      (** Ground-truth QoS below [qos_floor × qos_ref] in a quiet region
          (no fault active, benign background, full envelope) later than
          [qos_deadline_s] after the last disturbance. *)
  | Supervisor_legal
      (** Supervisor walked into an illegal automaton state, unknown
          gains mode, or a budget outside loose physical bounds — the
          tripwire a corrupted checkpoint restore would hit. *)
  | Actuation_bounds
      (** Applied frequency not an OPP-table entry, or core count
          outside [1, 4]. *)
  | Non_finite  (** A NaN or infinity reached observations or ground truth. *)

val kind_name : kind -> string
(** Stable names: ["power-cap"], ["qos-reconvergence"],
    ["supervisor-legal"], ["actuation-bounds"], ["non-finite"]. *)

val kind_of_string : string -> kind
(** Raises [Invalid_argument] on an unknown name. *)

type violation = {
  v_kind : kind;
  v_tick : int;  (** 0-based tick at which the finding fired. *)
  v_time : float;  (** Simulated seconds. *)
  v_detail : string;  (** Human-readable, with the offending values. *)
}

type limits = {
  guardband : float;
      (** Tolerated relative excess over the envelope (safety margin;
          intentionally looser than [Spectr.Metrics.power_allowance],
          which is a measurement tolerance for evaluation metrics). *)
  settle_s : float;  (** Power-cap grace after each disturbance. *)
  excess_budget_s : float;
      (** Cumulative over-cap seconds tolerated per disturbance epoch. *)
  qos_floor : float;  (** Fraction of [qos_ref] that must be met. *)
  qos_deadline_s : float;  (** QoS grace after a disturbance. *)
  sustain_ticks : int;
      (** Consecutive violating ticks before a QoS finding fires. *)
  max_violations : int;  (** Findings recorded per cell before muting. *)
}

val limits : limits
(** The thresholds every monitor checks: 5 % guardband, 1 s settle
    grace with a 0.75 s excess budget, 50 % QoS floor with a 3 s
    deadline, 3-tick sustain, 25 findings. *)

type t

val create : config:Spectr.Scenario.config -> ?kill_time:float -> unit -> t
(** A monitor for one scenario run.  [kill_time] (seconds) registers the
    kill/restart drill as a disturbance instant so the restarted manager
    gets the same compliance deadline any other disturbance gets. *)

val check :
  t ->
  runner:Spectr.Scenario.runner ->
  sup:Spectr.Supervisor.t option ->
  obs:Soc.observation ->
  unit
(** Evaluate every invariant against the tick that just executed
    (ground truth read from the live SoC) and record the findings that
    fire, in order ({!violations}).  [sup] enables the supervisor-legality monitor (pass the handle of
    the currently-running manager — it changes across a restart). *)

val violations : t -> violation list
(** All findings so far, oldest first (capped at [max_violations]). *)
