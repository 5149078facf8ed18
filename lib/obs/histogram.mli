(** Fixed-bucket log-scale latency histograms (nanosecond samples).

    Power-of-two buckets, lock-free recording on atomics, percentiles
    answered as the upper bound of the covering bucket clamped by the
    exactly-tracked maximum.  [observe] is an allocation-free no-op while
    instrumentation is disabled. *)

type t

val histogram : string -> t
(** Get or create the histogram registered under this name. *)

val observe : t -> int -> unit
(** Record one nanosecond sample.  Negative samples (a clock bug in the
    caller) are rejected consistently — they touch neither [count], [sum]
    nor any bucket, only the {!dropped} tally — so [mean_ns] is always
    the mean of the samples actually recorded.  Zero is a valid sample
    (bucket 0). *)

val count : t -> int
val max_ns : t -> int
val mean_ns : t -> float

val dropped : t -> int
(** Negative samples rejected by {!observe} since the last reset. *)

val percentile : t -> float -> int
(** [percentile t 95.] is an upper bound of the 95th-percentile sample
    (exact up to the 2x bucket width; exactly the max for p = 100).
    0 when empty.  Raises [Invalid_argument] outside [0, 100]. *)

val snapshot : unit -> (string * t) list
(** Every registered histogram, sorted by name. *)

val reset : unit -> unit
(** Zero every histogram (registration survives). *)
