(** The three-phase evaluation scenario of §5:

    1. {e Safe Phase} — the QoS application alone, reference achievable
       within TDP; goal: meet QoS, minimize power.
    2. {e Emergency Phase} — same QoS reference, power envelope reduced
       (emulated thermal emergency).
    3. {e Workload Disturbance Phase} — envelope back at TDP, background
       tasks make the QoS reference unachievable within the budget.

    {!run} drives a manager through the phases on a fresh simulated SoC
    at the 50 ms controller period and records everything into a
    {!Spectr_platform.Trace}.  The SoC is built from the config's
    {!Platform_desc.t}; on the default [exynos5422] description traces
    are byte-identical to the pre-description 2-cluster engine. *)

open Spectr_platform

type phase = {
  phase_name : string;
  duration_s : float;
  envelope : float;  (** Power budget during the phase (W). *)
  background_tasks : int;
  phase_faults : Faults.injection list;
      (** Fault injections active during this phase; windows are
          {e phase-relative} (0 = phase start) and are shifted to
          absolute run time by {!run}.  Empty (the default scenario) is
          strictly off: no fault machinery is attached to the SoC and
          traces are bit-identical to pre-fault-layer runs. *)
}

type config = {
  workload : Workload.t;
  platform : Platform_desc.t;
      (** Platform description the SoC is built from. *)
  qos_ref : float;
  phases : phase list;
  controller_period : float;  (** Seconds; 0.05 as in §5. *)
  seed : int64;
}

val columns : string list
(** Base trace columns of the reference Exynos description (no [faults]
    column) — [columns_of Platform_desc.exynos5422]. *)

val fault_columns : string list
(** Exynos trace columns of a faulted run: {!columns} plus ["faults"]
    (number of active injections) and ["true_power"] (ground-truth chip
    power — under sensor faults the [power] column records the corrupted
    reading the managers saw, so safety must be judged against this
    one). *)

val columns_of : Platform_desc.t -> string list
(** Trace columns of a description: [time], [qos], [qos_ref], [power],
    [envelope], one [<cluster>_power] per cluster, then a
    [<cluster>_freq_mhz]/[<cluster>_cores] pair per cluster,
    [background], [phase].  On [exynos5422] this is exactly
    {!columns}. *)

val default_qos_ref : Platform_desc.t -> Workload.t -> float
(** The QoS reference a run uses unless told otherwise: 60 FPS for x264
    on the reference Exynos; everywhere else 75 % of the workload's
    maximum achievable rate on the description's host cluster (an
    achievable-within-TDP target, as in Phase 1 of the paper). *)

val default_config :
  ?seed:int64 ->
  ?qos_ref:float ->
  ?platform:Platform_desc.t ->
  Workload.t ->
  config
(** [qos_ref] defaults to {!default_qos_ref}; [platform] to
    [Platform_desc.exynos5422]. *)

val run : manager:Manager.t -> config -> Trace.t
(** Execute the scenario.  The trace has the columns of
    [columns_of config.platform]; when any phase carries fault
    injections, trailing [faults] and [true_power] columns record the
    active-injection count and ground-truth chip power per sample.  The
    per-cluster [_freq_mhz]/[_cores] columns always read back the
    {e actually applied} actuator state, so a stuck actuator is visible
    in the trace. *)

val fault_schedule : config -> Faults.injection list
(** The absolute-time fault schedule of a config (phase-relative windows
    shifted by each phase's start). *)

(** {1 The closed loop} *)

val heartbeat_monitor : qos_ref:float -> Heartbeats.t
(** The QoS monitor every closed loop reads: the application's
    heartbeats averaged over a 0.25 s window, with [qos_ref] as the
    user's performance goal. *)

val close_loop :
  Soc.t ->
  Heartbeats.t ->
  Soc.observation ->
  manager:Manager.t ->
  dt:float ->
  qos_ref:float ->
  envelope:float ->
  unit
(** One controller period, the one loop body of every scenario tick and
    every fleet node: step the SoC into the observation buffer, deliver
    the period's heartbeats (none while {!Faults.heartbeat_stalled}
    holds on the SoC's fault schedule), overwrite the observation's
    [qos_rate] with the monitor's windowed rate, and step the manager
    under [envelope]. *)

(** {1 Tick-at-a-time execution}

    {!run} is a loop over this lower-level engine.  A {!runner} owns the
    platform half of a scenario — SoC, fault schedule, heartbeat monitor,
    trace and phase cursor — while the manager is an argument of every
    {!tick}.  That split is what the chaos engine's kill/restart
    drills and per-tick invariant monitors are built on: the platform
    keeps running while the manager is replaced mid-scenario, and every
    tick's observation is available for checking before the next one
    executes.  [run ~manager config] and
    [start config |> loop (tick ~manager)] produce byte-identical
    traces. *)

type runner

val start : config -> runner

val tick : runner -> manager:Manager.t -> Soc.observation option
(** Execute one controller period with the given manager: step the SoC,
    deliver heartbeats, invoke the manager, record the trace row.
    Returns the observation the manager saw, or [None] when the scenario
    is complete (no step executed).  The manager may differ between
    ticks.

    The returned observation is the runner's own buffer, rewritten in
    place by the next [tick] — read it (or copy the fields out) before
    ticking again; do not stash the record itself. *)

val trace : runner -> Trace.t

val runner_soc : runner -> Soc.t
(** The live SoC — monitors read actuator readbacks from here between
    ticks. *)

val ground_truth : runner -> float array
(** The noise-free chip power ([.(0)]) and QoS rate ([.(1)]) at the end
    of the last tick ({!Soc.ground_truth}): one physics pass per tick,
    shared with a faulted run's [true_power] column, or run at the first
    call after a fault-free tick — read it before changing the SoC.  The
    runner's own buffer, valid until the next tick. *)

val ticks_done : runner -> int

val current_phase : runner -> phase * int
(** The phase the most recent {!tick} ran in, and its index: the cursor
    moves on only when the next tick starts, so between ticks this is
    the phase of the observation just returned (the first phase before
    any tick).  Monitors read the envelope and load in force here. *)

val phase : runner -> phase
(** {!current_phase}'s phase alone, without building a pair: the
    per-tick accessor of monitors. *)

val total_ticks : config -> int
(** Number of controller periods the full scenario executes. *)

val phase_bounds : config -> (string * int * int) list
(** Sample-index range [(name, from, upto)] of each phase in a trace
    produced by {!run} (upto exclusive). *)
