(** SISO baseline (Row C of Table 1): uncoordinated single-input
    single-output PID loops.

    Three independent loops, each pre-verified in isolation but with no
    knowledge of each other (§2.1's "controllers may behave non-optimally
    … without knowledge of the presence or behavior of seemingly
    orthogonal controllers"):

    - QoS → Big frequency (fast loop),
    - Big power → Big active cores (slow loop, tracking the budget),
    - Little power → Little frequency.

    The QoS and power loops share the plant: when QoS is met below
    budget the power loop keeps adding cores (wasting energy) while the
    QoS loop compensates by dropping frequency — the conflicting
    actuation SPECTR's supervisor exists to prevent. *)

val make : unit -> Manager.t
(** The PID gains are fixed (hand-tuned as in the SISO literature, no
    identification needed — one of the approach's genuine advantages). *)
