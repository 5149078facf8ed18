(** Synchronous composition of automata (the ‖ operator of §4.3.1).

    Common events synchronize; private events interleave.  Only the
    reachable part of the product is constructed, so composing many small
    sub-plants stays tractable — this is the modular-decomposition lever
    the paper relies on for scalability.  The walk is the synthesis
    engine's own exploration ({!Synthesis.product}), so a composition
    and a synthesis product number their states alike. *)

val pair : Automaton.t -> Automaton.t -> Automaton.t
(** [pair a b] is A ‖ B.  Product states are named ["qa.qb"], matching the
    paper's Figure 12b.  A product state is marked iff both components are
    marked, and forbidden iff either component is forbidden.  The alphabet
    is Σ_A ∪ Σ_B.  States are numbered in breadth-first discovery order
    from the initial pair, each state's successors found through a's
    events, then b's private ones, each in event-id order.  Raises
    [Invalid_argument], naming [Compose.pair(A,B)], on an alphabet clash
    or a product past the engine's index range. *)

val all : Automaton.t list -> Automaton.t
(** n-ary ‖ as a size-ordered balanced tree of {!pair}: components are
    stable-sorted by state count and adjacent ones paired, round by
    round, so no intermediate product dwarfs the final one the way the
    old left fold's skewed chain did.  The result is isomorphic to (and
    accepts the same language as) the fold of {!pair} in list order —
    only composite state names and hence the structural digest depend on
    the tree shape.  Raises [Invalid_argument] on the empty list. *)
