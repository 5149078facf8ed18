(** One datacenter node: a simulated SoC plus its SPECTR manager behind
    the narrow interface the fleet coordinator sees.

    A node owns its platform (SoC, heartbeat monitor) and its resource
    manager, exactly like a standalone scenario run — the fleet layer
    never reaches into either.  The coordinator talks to a node through
    three verbs only: {!tick} it forward, read its {!report}, and
    {!set_cap} its power envelope.  A cap change is delivered to the
    manager as the [envelope] argument of its next step, so it flows
    into the per-chip SCT supervisor as the same [tdpIncreased] /
    [tdpDecreased] envelope events a thermal emergency produces — the
    synthesized supervisor stays the enforcement mechanism; the
    coordinator only moves the reference.

    Nodes also support whole-node death/restart drills: {!kill} powers
    the node off (zero power, zero QoS), {!restart} boots a fresh
    platform and restores the last {!checkpoint} into the manager the
    node built once, in {!create} (the {!Spectr.Manager.persist}
    mechanism the chaos engine's kill drills pin). *)

open Spectr_platform

type config = {
  node_tdp : float;
      (** The chip's own thermal design power (W) — the cap an
          uncoordinated node enforces (default 5.0, the paper's TDP). *)
  cap_floor : float;
      (** Lowest cap the coordinator may assign (W); keeps a starved
          node able to run its minimum-power configuration. *)
}

val default_config : config
(** [node_tdp = 5.0], [cap_floor = 1.0]. *)

type t

val create :
  ?config:config ->
  ?platform:Platform_desc.t ->
  ?reconfigurable:bool ->
  id:int ->
  seed:int64 ->
  workload:Workload.t ->
  unit ->
  t
(** Build a node: fresh SoC seeded with [seed] on the given platform
    description (default [Platform_desc.exynos5422] — fleets may mix
    descriptions), fresh SPECTR manager for that description (gain
    design is memoized process-wide, so the 10 000th node costs
    microseconds, not the full LQG pipeline), QoS reference derived as
    in {!Spectr.Scenario.default_config} (60 FPS for x264 on the
    reference Exynos, else 75 % of the workload's maximum rate on the
    description's host cluster).  The initial cap is [node_tdp].

    [reconfigurable:true] runs the node under the self-healing
    {!Spectr.Spectr_manager.make_reconfigurable} manager (SPECTR+R): an
    on-node FDIR monitor that isolates permanent faults and hot-swaps a
    supervisor re-synthesized for the degraded description.  The node
    then reports a reduced [r_max_power] capacity so the coordinator
    can re-budget the lost headroom to healthy nodes.  A {!restart} is
    new hardware, so such a node keeps only its boot checkpoint: it
    always comes back cold, on the full healthy description. *)

val id : t -> int
val workload_name : t -> string
val qos_ref : t -> float
val alive : t -> bool
val cap : t -> float

val set_cap : t -> float -> unit
(** Assign a new power cap (W), clamped to
    [[config.cap_floor, config.node_tdp]].  Takes effect on the next
    {!tick}: the manager's envelope argument changes, and the per-chip
    supervisor reacts with its own envelope events. *)

val add_load : t -> tasks:int -> duration_ticks:int -> unit
(** Place a workload item: [tasks] background tasks for the next
    [duration_ticks] ticks.  Items stack; each expires independently.
    Raises [Invalid_argument] when [tasks < 0] or [duration_ticks <= 0]. *)

val background : t -> int
(** Background tasks currently placed (sum of active items). *)

val warm_up : t -> unit
(** Run 40 uncounted controller periods at the paper's 0.05 s period:
    the SoC and manager step, but nothing lands in the epoch
    accumulators and work items do not expire.  This is the
    admission-control window that keeps synchronized boot transients
    from being charged against the coordinator.  The fleet engine calls
    this once after assigning initial caps; {!restart} calls it before
    a rebooted node rejoins.  No-op on a dead node. *)

val tick : t -> dt:float -> unit
(** One controller period: expire due work items, then
    {!Spectr.Scenario.close_loop} with the current cap as the envelope.
    A dead node does nothing except accrue QoS debt (it serves no
    work). *)

val last_true_power : t -> float
(** Ground-truth chip power after the last {!tick} (0 while dead) — the
    quantity fleet-level cap compliance is judged on. *)

val checkpoint : t -> unit
(** Save the manager's complete state ({!Spectr.Manager.persist})
    into the node's one checkpoint, which it keeps for its whole life
    and overwrites in place, allocating nothing; it is what a later
    {!restart} restores.  It starts as the boot state ({!create} saves
    it), which a reconfigurable node keeps: there this is a no-op.
    Called by the fleet engine at epoch boundaries. *)

val kill : t -> unit
(** Power the node off: it stops serving QoS and draws nothing.  The
    platform state is lost (hardware reboots); the manager's last
    {!checkpoint} survives.  No-op when already dead. *)

val restart : t -> unit
(** Boot a dead node: fresh SoC (reseeded deterministically from the
    node seed and restart count — the new life's noise stream is
    reproducible but independent), fresh heartbeat monitor, and the
    last {!checkpoint} restored into the node's one manager.  Background
    work items survive — the work queue outlives the node, as in a real
    cluster.  No-op when alive. *)

val kills : t -> int
val restarts : t -> int

val reconfig_handle : t -> Spectr.Spectr_manager.Reconfig.handle option
(** The reconfiguration-engine handle of a node created with
    [reconfigurable:true] ([None] otherwise).  The same handle for the
    node's whole life: {!restart} resets it to its boot state. *)

val inject_permanent : t -> Spectr_platform.Faults.kind -> unit
(** Fault drill: latch a permanent hardware fault
    ({!Spectr_platform.Faults.is_permanent}) onto the node's SoC,
    starting now.  Composes with any injections already attached.  A
    later {!restart} clears it — a rebooted node is new hardware.
    No-op on a dead node; raises [Invalid_argument] on a transient
    kind. *)

(** {1 Epoch reporting} *)

type measures = {
  mutable r_max_power : float;
      (** Degraded capacity (W): the most this node's {e current}
          platform description can draw — [node_tdp] for a healthy
          node, proportionally less after a reconfiguration removed a
          cluster ({!Spectr_platform.Platform_desc.max_power_estimate}
          ratio of degraded vs healthy description, floored at
          [cap_floor]).  The coordinator caps the node's allocation
          here: budget beyond a degraded node's capacity is dead
          headroom better spent on healthy nodes. *)
  mutable r_cap : float;  (** Cap in force during the reported epoch (W). *)
  mutable r_power : float;  (** Epoch-mean ground-truth chip power (W). *)
  mutable r_sensor_power : float;  (** Epoch-mean sensed chip power (W). *)
  mutable r_qos : float;  (** Epoch-mean heartbeat rate. *)
  r_qos_ref : float;
  mutable r_debt : float;
      (** Epoch QoS debt: integral over the epoch of the relative
          shortfall [max 0 (ref - qos) / ref], in seconds.  0 = the
          reference was met every tick; a dead node accrues 1 s per
          second. *)
  mutable r_total_debt : float;  (** Lifetime QoS debt (s). *)
}
(** A report's float measures.  A record of floats only is stored flat,
    so {!report} refreshes these without boxing a float. *)

type report = {
  r_id : int;
  r_workload : string;
  mutable r_alive : bool;
  mutable r_background : int;  (** Background tasks placed at epoch end. *)
  mutable r_kills : int;
  mutable r_restarts : int;
  r_m : measures;
}

val report : t -> report
(** The node's epoch report.  Resets the epoch accumulators — each tick
    is reported exactly once.  With no ticks since the last report, the
    mean fields are 0.

    {b Validity.}  The report is the node's own record, refreshed in
    place and returned by every call: it stays valid until this node's
    next [report] call, which overwrites it.  A caller that needs an
    epoch's figures past that point reads them first or copies them.
    Allocation-free on a node that is not reconfigurable. *)
