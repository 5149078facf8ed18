(** Reachability analysis: accessible and coaccessible states.

    These are the building blocks of the paper's §4.3.4 non-blocking
    check: an automaton is non-blocking exactly when every accessible
    state is coaccessible (can still reach a marked state).  The
    [*_indices] analyses return flags over state indices, which
    {!Automaton.restrict_indices} turns into a sub-automaton without
    touching state names; {!Synthesis.supcon}'s fixpoint does its own
    trimming. *)

val accessible_indices : Automaton.t -> bool array
(** [accessible_indices a] flags states reachable from the initial
    state. *)

val coaccessible_indices : Automaton.t -> bool array
(** Flags states from which some marked state is reachable (computed by
    backward traversal from the marked states). *)

val accessible : Automaton.t -> Automaton.t
(** Sub-automaton of reachable states (never empty: the initial state is
    always reachable). *)

val is_trim : Automaton.t -> bool
(** Every state is both accessible and coaccessible. *)
