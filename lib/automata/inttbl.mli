(** First-seen numbering of non-negative int keys: the state table
    ({e joint key → state index}) of the product walks in {!Verify}
    and {!Synthesis}.  The table owns its keys, stored in discovery
    order, so they double as the walk's BFS queue.  Its open-addressing
    slots (linear probing over a power-of-two capacity at most 3/4
    full) are 32-bit words holding an index and as many hash bits as
    the index leaves — fewer as the table grows — and no key; nothing
    is boxed per entry.  The keys keep 63 bits, in chunks of ints. *)

type t

val create : unit -> t
(** An empty table; it holds 96 keys before its first growth. *)

val intern : t -> int -> int
(** [intern t key] is [key]'s index: the one it got when first interned,
    or [length t] — after which [length t] grows by one — when [key] is
    new.  [key] must be [>= 0].  Raises [Invalid_argument] on a sealed
    table, or when the slots would pass 2{^32}. *)

val length : t -> int
(** The number of distinct keys interned so far. *)

val key : t -> int -> int
(** [key t i] is the key with index [i < length t]. *)

val seal : t -> unit
(** Drop the slots of a table whose walk has interned its last key: {!key} and {!length} still answer, {!intern}
    raises [Invalid_argument]. *)
