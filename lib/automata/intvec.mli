(** Growable int array, used as scratch by the index-native algorithms
    ({!Compose}, {!Verify}, {!Synthesis}) to accumulate transitions and
    state maps without consing a list cell per element. *)

type t

val create : unit -> t
(** An empty vector with room for 64 elements — small enough to stay in
    the minor heap: the product walks run thousands of times on tiny
    automata, and a larger start sends every one of their buffers to the
    major heap. *)

val length : t -> int
val push : t -> int -> unit
val get : t -> int -> int

val pop : t -> int
(** Remove and return the last element (LIFO use as a worklist stack).
    Raises [Invalid_argument] when empty. *)

val to_array : t -> int array

val data : t -> int array
(** The backing array itself, no copy: elements [0 .. length - 1] are the
    vector's, the rest is spare capacity.  A later {!push} may replace
    it, so hold it only while nothing pushes — the synthesis engine
    reads its state keys, row offsets and flags this way. *)
