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

    When observability is enabled ({!Spectr_obs}), hits, misses and
    verifications feed the [synth_cache.hits]/[synth_cache.misses]/
    [synth_cache.verifications] counters and each actual
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
(** Memoized {!Synthesis.supcon}, verified once: on a miss the new
    supervisor must pass {!Verify.nonblocking} and
    {!Verify.controllable} against [plant] before it is stored (raises
    [Failure] naming the blocking or uncontrollable state otherwise), so
    a hit returns a supervisor that has already passed both.  With
    observability on, each such verification counts in
    [synth_cache.verifications]. *)

val stats : unit -> int * int
(** [(hits, misses)] since start-up (or the last {!clear}). *)

val clear : unit -> unit
(** Drop every entry and reset the counters (tests). *)
