(** Datacenter-level power re-budgeting: each epoch, split a global
    power cap across nodes from their epoch reports.

    This is the fleet analogue of the per-chip supervisory layer: the
    coordinator never touches a core or a cluster — it only moves each
    node's power envelope, and the node's own synthesized SCT supervisor
    enforces it (a cap change arrives as [tdpIncreased]/[tdpDecreased]
    envelope events, exactly like a thermal emergency).  SNIPPETS §2.1
    calls this shape a "coordinator over per-entity managers". *)

type policy =
  | Uncoordinated
      (** No coordination: every node runs at its own chip TDP.  The
          baseline that violates the global cap whenever enough nodes
          draw near-TDP at once. *)
  | Static_split
      (** [global_cap / n] to every node, clamped to
          [[cap_floor, node_tdp]].  Compliant but blind: starved hot
          nodes and wasted budget on idle ones. *)
  | Water_filling
      (** Demand-driven water-filling: each node's demand grows when it
          accrued QoS debt last epoch and shrinks toward its measured
          draw otherwise; a common water level [λ] is found by bisection
          so that [Σ max floor (min demand λ) = global_cap].  Compliant
          {e and} need-aware. *)

val policy_of_string : string -> policy option
(** ["uncoordinated"], ["static"], ["waterfill"]. *)

val string_of_policy : policy -> string

val default_headroom : float
(** Fraction of the global cap the coordinated policies hold back
    (0.05).  A per-chip supervisor tolerates brief overshoot at its own
    cap (OPP dither, one-period actuation lag); allocating the global
    cap to the last watt would let the fleet sum flutter over it.  The
    same reasoning as the chaos invariants' safety guardband, one level
    up. *)

val rebudget :
  policy:policy ->
  global_cap:float ->
  config:Node.config ->
  epoch_s:float ->
  Node.report array ->
  float array
(** New cap per report index (same order as the input).  [epoch_s] is
    the reported epoch's duration in seconds — it normalizes each
    node's QoS debt into a starvation fraction.

    Under the two coordinated policies dead nodes ([r_alive = false])
    are {e excluded}: they are allocated 0 and their former share
    redistributes to the survivors within the same rebudget call
    ({!Node.set_cap}'s floor clamp still lets a later reboot run its
    minimum-power configuration).  Alive nodes' caps lie in
    [[config.cap_floor, min config.node_tdp r_max_power]] — a
    reconfigured node's allocation is capped at its reported degraded
    capacity, freeing headroom its silicon can no longer use.  Writing
    [budget = global_cap × (1 - default_headroom)], the coordinated caps sum to
    at most [budget] whenever [budget >= n_alive × cap_floor] (below
    that floor the problem is infeasible and every alive node gets
    [cap_floor]).  Deterministic: fixed bisection iteration count,
    fixed summation order. *)
