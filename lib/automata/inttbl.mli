(** Open-addressing table from non-negative int keys to non-negative int
    values: the state map ({e joint key → state index}) of the product
    walks in {!Compose}, {!Verify} and {!Synthesis}.  Linear probing
    over a power-of-two capacity kept at most half full; nothing is
    boxed per entry. *)

type t

val create : unit -> t
(** An empty table; it holds 64 entries before its first growth. *)

val put : t -> int -> int -> int
(** [put t key v] inserts [key -> v] when [key] is absent and returns
    [-1]; otherwise it leaves the table unchanged and returns the value
    already stored.  [key] and [v] must be [>= 0]. *)
