(** Domain-safe memoization of {!Spectr_automata.Synthesis.supcon}.

    Every scenario in a bench grid constructs its managers from scratch
    (required for order-independence under parallel execution), and each
    SPECTR manager construction synthesizes the same case-study
    supervisor.  This cache keys synthesis results on the structural
    digest of (plant, spec) — see {!Spectr_automata.Automaton.structural_digest}
    — so repeated manager construction stops re-synthesizing identical
    supervisors.

    A cache hit returns the very automaton value the miss produced
    (automata are immutable once built, so sharing across domains is
    safe); it is structurally equal to what a fresh synthesis would
    return.  The table is a per-key {!Single_flight} memo: racers on the
    same key synthesize exactly once (the losers wait and share the
    winner's result, counted as hits), while {e distinct} keys
    synthesize fully in parallel — no lock is held across a synthesis.

    When observability is enabled ({!Spectr_obs}), hits and misses feed
    the [synth_cache.hits]/[synth_cache.misses] counters and each actual
    synthesis is timed into the [synth_cache.synthesis_ns] histogram.

    The digest key is deterministic {e within a process} only: event
    intern order feeds the transition encoding, and intern order depends
    on construction order.  That is exactly the lifetime of this cache —
    never persist the digests. *)

open Spectr_automata

val supcon :
  plant:Automaton.t ->
  spec:Automaton.t ->
  (Automaton.t * Synthesis.stats, Synthesis.error) result
(** Memoized {!Synthesis.supcon}, the engine at one job.  Every
    synthesis the library requests is small (a few hundred product
    cells), where domain spawns and barrier rounds would cost more than
    the synthesis; callers that want workers call
    {!Synthesis.supcon_par} directly. *)

val stats : unit -> int * int
(** [(hits, misses)] since start-up (or the last {!clear}). *)

val clear : unit -> unit
(** Drop every entry and reset the counters (tests). *)
