(** Fixed-size domain worker pool with an ordered-result [map].

    The benchmark harness executes (manager × workload × phase-schedule)
    scenarios that are embarrassingly parallel: each owns a private
    {!Spectr_platform.Soc} and PRNG seed and never touches shared mutable
    state.  This pool fans such tasks out across OCaml 5 domains while
    keeping the reduction deterministic — results come back in submission
    order, so a parallel run is byte-identical to a sequential one.

    Sizing: [create ()] uses the [SPECTR_JOBS] environment variable when
    it holds a positive integer, else [Domain.recommended_domain_count].
    With one job no domain is ever spawned and [map] degenerates to
    [List.map].

    The submitting domain participates in the work, so a pool of [n]
    jobs spawns [n - 1] worker domains.  [map] must not be called from
    inside one of its own tasks (the pool is not re-entrant); such a
    call is detected via a domain-local marker and raises
    [Invalid_argument] immediately instead of deadlocking, whatever the
    job count.  Mapping over a {e different} pool from inside a task is
    allowed. *)

type t

val parse_jobs : string -> int option
(** [parse_jobs s] is [Some n] when [s] is a positive integer, else
    [None] (exposed for tests; this is the [SPECTR_JOBS] parser). *)

val default_jobs : unit -> int
(** [SPECTR_JOBS] when set to a positive integer, else
    [Domain.recommended_domain_count ()].  Always at least 1. *)

val create : ?jobs:int -> unit -> t
(** Spawn a pool of [jobs] (default {!default_jobs}) workers.  Raises
    [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element of [xs], possibly in
    parallel, and returns the results in the order of [xs].  If any
    application raises, the exception of the smallest-index failing
    element is re-raised after all tasks have finished, carrying the
    backtrace captured at its original raise point
    ({!Printexc.raise_with_backtrace}).  Raises [Invalid_argument] when
    called from inside one of this pool's own tasks (re-entrancy would
    deadlock). *)

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array
(** {!map} over arrays, without the list round-trip — the fleet engine
    fans thousands of shard descriptors out through this.  Same ordering,
    exception and re-entrancy contract as {!map}. *)

val shutdown : t -> unit
(** Join the worker domains.  Subsequent [map] calls fall back to
    sequential execution.  Idempotent. *)
