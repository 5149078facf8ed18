(* The context is an OCaml byte string holding a [struct MD5Context]
   (md5_stubs.c); [update] neither allocates nor raises. *)
external init : unit -> Bytes.t = "spectr_md5_init"

external update : Bytes.t -> Bytes.t -> int -> unit = "spectr_md5_update"
[@@noalloc]

external final : Bytes.t -> string = "spectr_md5_final"

type t = { ctx : Bytes.t; buf : Bytes.t; mutable pos : int }

let create size =
  if size < 1 then invalid_arg "Md5.create: empty buffer";
  { ctx = init (); buf = Bytes.create size; pos = 0 }

let flush h =
  update h.ctx h.buf h.pos;
  h.pos <- 0

let room h k = if h.pos + k > Bytes.length h.buf then flush h

let add_char h c =
  room h 1;
  Bytes.unsafe_set h.buf h.pos c;
  h.pos <- h.pos + 1

let add_int h i =
  room h 8;
  Bytes.set_int64_le h.buf h.pos (Int64.of_int i);
  h.pos <- h.pos + 8

let add_string h s =
  let off = ref 0 in
  while !off < String.length s do
    if h.pos = Bytes.length h.buf then flush h;
    let n = min (String.length s - !off) (Bytes.length h.buf - h.pos) in
    Bytes.blit_string s !off h.buf h.pos n;
    h.pos <- h.pos + n;
    off := !off + n
  done

let to_hex h =
  flush h;
  Digest.to_hex (final h.ctx)
