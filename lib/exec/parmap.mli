(** Ordered parallel map/iter over scenario lists.

    Thin front over {!Pool}: a process-wide default pool is created on
    first use, from any domain (sized by {!Pool.default_jobs}, i.e.
    [SPECTR_JOBS] or the recommended domain count), and shut down at
    exit.  All combinators preserve submission order, so callers that
    compute first and print second produce output byte-identical to a
    sequential run.

    Pass [?pool] to use an explicit pool instead — tests use this to
    compare a forced 4-job pool against a 1-job one without touching the
    environment. *)

val jobs : unit -> int
(** Job count of the default pool.  It forces the creation of the pool's
    record, not of any domain: the workers start with the first parallel
    map (see {!Pool.map}). *)

val map : ?pool:Pool.t -> ('a -> 'b) -> 'a list -> 'b list
(** Like [List.map], but tasks may run on other domains.  Results are in
    input order; the smallest-index exception is re-raised. *)

val mapi : ?pool:Pool.t -> (int -> 'a -> 'b) -> 'a list -> 'b list

val map_array : ?pool:Pool.t -> ('a -> 'b) -> 'a array -> 'b array
(** Ordered parallel map over arrays ({!Pool.map_array} on the default
    pool): results land at the index of their input. *)

val iter : ?pool:Pool.t -> ('a -> unit) -> 'a list -> unit
(** Parallel [List.iter]; barrier semantics (returns after every task). *)
