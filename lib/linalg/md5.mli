(** Streamed MD5 over the OCaml runtime's own implementation (a C stub
    over [caml_MD5Init/Update/Final]): the bytes a digest hashes are
    written into a fixed buffer and fed to the context a buffer at a
    time, never held whole.  The digest equals
    [Digest.string] of the concatenated bytes.  [Automaton]'s structural
    digest and [Trace]'s CSV digest both stream through it. *)

type t = { ctx : Bytes.t; buf : Bytes.t; mutable pos : int }
(** A digest in progress: the context, and the buffer whose first [pos]
    bytes are written but not yet hashed.  A writer may fill [buf] from
    [pos] directly after {!room}, then move [pos] past what it wrote. *)

val create : int -> t
(** A fresh digest over a buffer of the given size (at least 1). *)

val room : t -> int -> unit
(** [room h k] hashes the buffer if fewer than [k] bytes are free, so
    that [k <= Bytes.length h.buf] bytes fit from [h.pos]. *)

val add_char : t -> char -> unit

val add_int : t -> int -> unit
(** The int as 8 little-endian bytes. *)

val add_string : t -> string -> unit
(** Any length, a buffer's room at a time. *)

val to_hex : t -> string
(** Hash what the buffer still holds and return the digest in
    lowercase hex, as [Digest.to_hex].  The digest is finished: add
    nothing after this. *)
