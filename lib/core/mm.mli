(** The uncoordinated multi-MIMO baselines of §5: fixed-gain 2×2 LQG
    controllers, one per cluster, "representatives of a state-of-the-art
    solution [Pothukuchi et al. ISCA'16], one prioritizing power and the
    other prioritizing performance".

    Both receive the same references SPECTR does (the QoS target and the
    power envelope, split statically between the clusters) but have no
    supervisor: gains never switch and budgets never rebalance. *)

val qos_weights : float array
(** Performance-over-power Tracking Error Cost.  The paper's ratio is
    30:1 over reference-normalized outputs; our channels are normalized
    by the identification experiment's σ instead, which amplifies power
    deviations ≈ 5×, so the same effective priority needs a larger raw
    ratio (30 : 0.1). *)

val power_weights : float array
(** The power-over-performance mirror of {!qos_weights}. *)

val little_power_budget : float
(** Static share of the envelope reserved for each secondary cluster
    (W).  The host cluster is offered whatever the envelope leaves after
    every secondary's share is subtracted. *)

val goals : Design_flow.goal list
(** The two gain sets every per-cluster controller carries: ["qos"]
    ({!qos_weights}) and ["power"] ({!power_weights}). *)

val cluster_controllers :
  Spectr_platform.Platform_desc.t ->
  initial:string ->
  refs:(int -> float array) ->
  Spectr_control.Mimo.t array
(** One 2×2 LQG leaf controller per cluster of the description, in
    description order: identified through
    {!Design_flow.cluster_subsystem}, carrying the {!goals} gain sets,
    starting on gain set [initial] with references [refs i].  Raises
    [Failure] when gain design fails. *)

val make_perf : platform:Spectr_platform.Platform_desc.t -> unit -> Manager.t
(** MM-Perf: performance-oriented gains on every cluster.  [platform]
    selects the platform description: one fixed-gain 2×2 controller per
    cluster. *)

val make_pow : platform:Spectr_platform.Platform_desc.t -> unit -> Manager.t
(** MM-Pow: power-oriented gains on every cluster. *)
