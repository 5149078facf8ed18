(** Growable int vector, used as scratch by the index-native algorithms
    ({!Inttbl}, {!Compose}, {!Synthesis}) to accumulate keys, rows and
    transitions without consing a list cell per element.  It is stored
    in fixed chunks of 2{^15} ints that are appended to and never
    copied, so no element-sized array grows by doubling. *)

type t = private {
  mutable chunks : int array array;
      (** The storage: element [i] is [chunks.(i lsr 15).(i land 0x7fff)].
          A hot loop may read it in place — a call per element costs
          more under separate compilation — while nothing pushes: a
          push may replace it. *)
  mutable cap : int;
  mutable len : int;
}

val create : unit -> t
(** An empty vector with room for 64 elements — small enough to stay in
    the minor heap: the product walks run thousands of times on tiny
    automata, and a larger start sends every one of their buffers to the
    major heap.  The first chunk doubles up to the chunk size; later
    chunks are added whole. *)

val length : t -> int
val push : t -> int -> unit

val get : t -> int -> int
(** [get v i] for [0 <= i < length v]: two array reads, no length
    check.  An index past the allocated capacity raises
    [Invalid_argument]; one in the spare capacity reads a stale value. *)

val pop : t -> int
(** Remove and return the last element (LIFO use as a worklist stack).
    Raises [Invalid_argument] when empty. *)
