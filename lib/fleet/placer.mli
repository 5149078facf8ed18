(** Workload placement over the fleet: assign each arriving item to the
    node where it will do best, by multi-factor scoring.

    The score combines workload affinity (a node already running the
    item's benchmark, +1), power headroom (cap minus measured draw, +2
    per unit of relative headroom), QoS debt (a struggling node should
    not take more work, −1.5 per second), fault history (a kill-prone
    node is a bad home, −0.5 per kill), and the load already placed
    (−0.25 per background task) — including earlier items of the same
    round, so a burst spreads instead of piling onto one winner.  Dead nodes never receive work.
    Deterministic: ties break toward the lowest node index. *)

val assign :
  reports:Node.report array ->
  Arrivals.item list ->
  (int * Arrivals.item) list
(** Greedy assignment, items in order: each item goes to the
    highest-scoring node index (into [reports]).  Items are dropped
    (omitted from the result) only when every node is dead. *)
