(** Growable vector of 32-bit unsigned words, the working set of the
    product walks in {!Compose} and {!Synthesis}: transitions, row ends,
    predecessor lists, offsets and index maps at 4 bytes an entry.  It
    is stored in chunks of 2{^15} words, each a [Bytes.t] of native-endian
    words; a full chunk is never copied, so no element-sized buffer grows
    by doubling.  ({!Inttbl} keeps its 63-bit keys in int chunks.) *)

type t = private {
  mutable chunks : Bytes.t array;
      (** The storage: element [i] is the 32-bit word at byte
          [4 * (i land 0x7fff)] of [chunks.(i lsr 15)], read unsigned.
          Every chunk but the last holds 2{^15} words.  A hot loop may
          read and write it in place while nothing pushes: a push may
          replace it. *)
  mutable cap : int;
  mutable len : int;
}

val create : unit -> t
(** An empty vector with room for 64 words — small enough to stay in the
    minor heap: the product walks run thousands of times on tiny
    automata, and a larger start sends every one of their buffers to the
    major heap.  The first chunk doubles up to the chunk size; later
    chunks are added whole. *)

val make : int -> t
(** [make n] holds [n] zero words, each chunk allocated at its final
    size: the buffers of counted size (offsets, predecessor lists). *)

val length : t -> int

val push : t -> int -> unit
(** Append a word.  Raises [Invalid_argument] unless [0 <= x < 2{^32}]. *)

val get : t -> int -> int
(** [get v i] for [0 <= i < length v], in [[0, 2{^32})].  An index past
    the allocated capacity raises [Invalid_argument]; one in the spare
    capacity reads a stale value. *)

val pop : t -> int
(** Remove and return the last word (LIFO use as a worklist stack).
    Raises [Invalid_argument] when empty. *)
