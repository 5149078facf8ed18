(** Named monotonic counters and gauges, domain-safe.

    Counters shard per domain (merged on read); gauges are last-write-
    wins cells.  Handles are cheap to look up and are normally bound once
    at module initialization of the instrumented subsystem.  While
    instrumentation is disabled (the default), [incr]/[add]/[set] are
    allocation-free no-ops. *)

type t
(** A named monotonic counter. *)

type gauge
(** A named level (last write wins). *)

val counter : string -> t
(** Get or create the counter registered under this name. *)

val gauge : string -> gauge

val incr : t -> unit
val add : t -> int -> unit
val value : t -> int
(** Merged value across all domain shards. *)

val name : t -> string

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val by_name : string -> int option
(** Merged value of a registered counter, [None] if never registered. *)

val snapshot : unit -> (string * int) list
(** Every registered counter with its merged value, sorted by name. *)

val gauge_snapshot : unit -> (string * float) list

val reset : unit -> unit
(** Zero every counter and gauge (registration survives). *)
