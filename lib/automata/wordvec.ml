(* Growable vector of 32-bit unsigned words in fixed chunks — the
   working set of the product engine ({!Synthesis}): its transitions,
   predecessor lists, offsets and index maps, at half the bytes of an
   int per entry.  A chunk is a [Bytes.t] of [1 lsl cbits]
   native-endian words, appended to and never copied, so no
   element-sized buffer grows by doubling.  Only the first chunk of a
   [create]d vector grows, by doubling from a size that keeps a tiny walk
   in the minor heap up to the full chunk. *)

let cbits = 15
let cmask = (1 lsl cbits) - 1

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

type t = {
  mutable chunks : Bytes.t array;
  mutable cap : int;
  mutable len : int;
}

let create () = { chunks = [| Bytes.create (4 * 64) |]; cap = 64; len = 0 }

let make n =
  if n < 0 then invalid_arg "Wordvec.make: negative length";
  let full = n lsr cbits and part = n land cmask in
  let chunks =
    if full = 0 then [| Bytes.make (4 * part) '\000' |]
    else
      Array.init
        (if part > 0 then full + 1 else full)
        (fun c -> Bytes.make (4 * if c < full then cmask + 1 else part) '\000')
  in
  { chunks; cap = n; len = n }

let length v = v.len

(* Out of line, so [push]'s in-range path stays short. *)
let refuse x = invalid_arg (Printf.sprintf "Wordvec: %d is not a 32-bit word" x)

let get v i =
  Int32.to_int (get32 v.chunks.(i lsr cbits) ((i land cmask) lsl 2))
  land 0xffff_ffff

(* Every chunk but the last is full: a short last chunk is replaced by
   one of twice its size, up to a full chunk; a full one gets a full
   successor. *)
let grow v =
  let last = Array.length v.chunks - 1 in
  let words = Bytes.length v.chunks.(last) lsr 2 in
  if words <= cmask then begin
    let c = Bytes.create (4 * min (cmask + 1) (max 64 (2 * words))) in
    Bytes.blit v.chunks.(last) 0 c 0 (4 * words);
    v.chunks.(last) <- c;
    v.cap <- v.cap - words + (Bytes.length c lsr 2)
  end
  else begin
    v.chunks <- Array.append v.chunks [| Bytes.create (4 * (cmask + 1)) |];
    v.cap <- v.cap + cmask + 1
  end

let push v x =
  if x lsr 32 <> 0 then refuse x;
  if v.len = v.cap then grow v;
  set32 v.chunks.(v.len lsr cbits) ((v.len land cmask) lsl 2) (Int32.of_int x);
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Wordvec.pop: empty";
  v.len <- v.len - 1;
  get v v.len
