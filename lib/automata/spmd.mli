(** Bulk-synchronous SPMD execution over scoped domains — the
    coordination substrate of the {!Synthesis} engine.

    [run ~jobs f] calls [f w barrier] on workers [w = 0 .. jobs-1]:
    worker 0 runs on the calling domain, the others on domains spawned
    for the call and joined before it returns.  Workers structure their
    work as phases separated by {!wait}; the barrier both synchronizes
    and publishes (its mutex makes every phase-r write visible to every
    phase-r+1 reader).  With [jobs = 1] no domain is spawned and [f] is
    called inline with a no-op barrier — the sequential and parallel
    code paths are the same code.

    If any worker raises, the barrier is aborted: blocked and future
    {!wait}s raise {!Aborted} (caught inside [run]), every domain is
    joined, and the lowest-indexed worker's original exception is
    re-raised on the caller. *)

type barrier

exception Aborted

val wait : barrier -> unit
(** Block until all [jobs] workers arrive, then release them together.
    Raises {!Aborted} (after waking) when some worker failed. *)

val run : jobs:int -> (int -> barrier -> unit) -> unit
(** [run ~jobs f] — see module doc.  [jobs] is clamped to [>= 1]. *)
