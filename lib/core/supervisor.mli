(** The SPECTR supervisory controller: offline synthesis plus the runtime
    execution engine that drives the leaf controllers.

    Offline, {!synthesize} runs the §4.3 pipeline — compose the
    {!Plant_model} sub-plants, restrict by the {!Spec}, synthesize with
    {!Spectr_automata.Synthesis.supcon} and verify non-blocking and
    controllability — producing the verified supervisor automaton
    (Fig. 12d).  Both models are generated from a
    {!Spectr_platform.Platform_desc.t}, so the pipeline covers any
    cluster count; the default is the paper's Exynos 5422.

    At runtime (every supervisor period, 2× the controller period in
    §5), {!step} translates sensor readings into the uncontrollable
    events of the high-level plant model, walks the supervisor automaton,
    and among the controllable events the supervisor leaves enabled picks
    actions by a budget policy: gain switches and per-cluster power
    reference moves.  The chosen commands are delivered through the
    {!commands} closures, decoupling the supervisor from any particular
    leaf-controller implementation (§4.1: "the flexibility to incorporate
    any pre-verified off-the-shelf controllers"). *)

open Spectr_automata
module Platform_desc = Spectr_platform.Platform_desc

type commands = {
  switch_gains : string -> unit;
      (** Called with ["qos"] or ["power"] on a gain-schedule switch. *)
  set_power_ref : int -> float -> unit;
      (** New power budget (W) for the given cluster index (description
          order; on exynos5422: 0 = Big, 1 = Little). *)
}

(** The supervisor's band and budget constants.  They keep the paper's
    Big/Little vocabulary: the [big_*] fields govern the {e host}
    cluster's budget, the [little_*] fields every {e secondary}
    cluster's (each secondary gets its own budget between the min and
    max, moved in [little_budget_step] increments). *)
type thresholds = {
  qos_tolerance : float;  (** Relative QoS-met band: 0.02. *)
  capping_target : float;
      (** Capping-target band edge as a fraction of the envelope: 0.97
          — middle band of the three-band algorithm. *)
  big_budget_step : float;  (** Budget increment: 0.25 W. *)
  big_budget_min : float;  (** Floor for the host budget: 0.8 W. *)
  little_budget_step : float;  (** 0.1 W. *)
  little_budget_min : float;  (** 0.15 W. *)
  little_budget_max : float;  (** 1.0 W. *)
  critical_cut : float;  (** Multiplicative emergency cut factor: 0.9. *)
  max_actions_per_step : int;  (** Command budget per invocation: 4. *)
  min_capped_dwell : int;
      (** Uncapping hysteresis: supervisor periods that must elapse in
          power mode before [switchQoS] may fire (10 — one second at the
          100 ms supervisor period).  Prevents gain-switch chatter when
          the capped power level sits below the uncapping threshold. *)
}

val thresholds : thresholds
(** The constants every supervisor runs with. *)

val synthesize :
  ?platform:Platform_desc.t -> unit -> Automaton.t * Synthesis.stats
(** Synthesize and verify the supervisor for a platform description
    (default: exynos5422, the case study), through
    {!Spectr_exec.Synth_cache.supcon}: synthesis and both verifications
    run on a cache miss only, and a hit returns the supervisor verified
    then.  Raises [Failure] if the supervisor were empty or failed
    verification — both are structurally impossible for the generated
    models and covered by tests. *)

type t

val create :
  ?uncapping_threshold:float ->
  ?platform:Platform_desc.t ->
  commands:commands ->
  envelope:float ->
  unit ->
  t
(** A runtime supervisor starting in QoS mode with the host budget at
    [envelope] minus the secondary floor and every secondary budget at
    0.3 W.  [uncapping_threshold] (default 0.90) is the lowest band
    edge, as a fraction of the envelope: below it the chip counts as
    safely uncapped.  Synthesis runs once per {!create} (memoized per platform).
    Raises [Invalid_argument] when [envelope <= 0]. *)

val step :
  t -> qos:float -> qos_ref:float -> power:float -> envelope:float -> unit
(** One supervisor period: ingest the measured QoS rate, its reference,
    the measured chip power and the current power envelope (which may
    have changed — a thermal emergency), then emit commands.  Command
    closures are invoked synchronously, before [step] returns.

    Non-finite measurements (a failed sensor) are treated as dropped
    samples: the last trustworthy value is substituted, so the band
    logic keeps running instead of silently holding state forever. *)

val state : t -> string
(** Current supervisor-automaton state name (e.g. ["Eval\\.Safe.Uncapped"]
    — the plant component ["Eval.Safe"] is itself a product state, so
    its inner dot is escaped; see
    {!Spectr_automata.Automaton.Product}).  Internally the
    engine tracks the state as an index and steps with
    {!Spectr_automata.Automaton.step_index}; this accessor is the only
    point where the index is translated back to a name. *)

val gains_mode : t -> string
(** ["qos"] or ["power"]. *)

val platform : t -> Platform_desc.t
val num_clusters : t -> int
val host_cluster : t -> int

val power_ref : t -> int -> float
(** Current power reference of the given cluster index.  Raises
    [Invalid_argument] outside [0, num_clusters). *)

val power_refs_into : t -> float array -> unit
(** Every cluster's {!power_ref}, written into the first
    {!num_clusters} slots of a caller-owned array: the per-tick form,
    which boxes no float.  Raises [Invalid_argument] when the array is
    shorter. *)

val synthesis_stats : t -> Synthesis.stats

(** {1 Checkpoint/restore}

    The runtime engine's full mutable state — automaton state index,
    gain mode, dwell age, the per-cluster budgets and the last
    trustworthy measurements.  The synthesized automaton itself is
    {e not} saved: synthesis is deterministic and memoized, so a fresh
    {!create} rebuilds the identical automaton and the saved index
    stays valid. *)

type saved

val saved : t -> saved
(** A copy of [t]'s engine state, detached from it. *)

val copy : t -> saved -> restore:bool -> unit
(** [copy t s ~restore] copies [t]'s state into [s], or [s] into [t]
    when [restore], in place.  The command closures are {e not}
    re-invoked: the leaf controllers are restored separately.  Raises
    [Invalid_argument] when the budget counts differ, and on a restore
    of a state index outside the automaton or an unknown mode. *)

(** {1 Hot-swap state mapping (reconfiguration support)} *)

val adopt : t -> prev:t -> unit
(** Map the outgoing supervisor [prev]'s state onto [t], a freshly
    created supervisor synthesized for a (typically degraded) platform
    whose automaton need not share the old state space.  The mapping
    rule — the new automaton starts at its {e initial} state; budgets
    carry over by cluster name (clusters [prev]'s platform has and
    [t]'s lacks drop theirs, survivors are re-clamped); "power" gain
    mode carries over by replaying the uncontrollable capping history
    ([aboveTarget] → [switchPower]) from the initial state, keeping the
    capping dwell age; one ordinary step on the last carried
    measurements then settles the band events — is documented in full
    in DESIGN.md §17.  A restore ({!copy}) is its dual for the {e same}
    automaton; [adopt] is for a {e different} one.  [prev] is only
    read. *)
