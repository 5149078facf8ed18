(* First-seen numbering of non-negative int keys: the state table of the
   index-native product walks.  The table owns the key vector, in
   discovery order, so the vector doubles as the BFS queue; the
   open-addressing slots (linear probing, power-of-two capacity, load
   at most 3/4) hold only an index and a few hash bits.  No boxing, no
   polymorphic hash, no bucket cells, and a key is stored once.

   A slot is a 32-bit word in a [Bytes.t]: [0] when empty, else
   [((index + 1) lsl tbits) lor tag].  At a capacity of [2^lbits] slots
   an index is below [3/4 * 2^lbits], so [index + 1] takes [lbits] bits
   and the tag the other [tbits = 32 - lbits]: the tag narrows by a bit
   at every growth.  The tag is the hash's top bits, the slot position
   its low bits, and a probe reads the key from the vector only when
   the tags agree.  {!seal} drops the slots once the walk that interns
   is over.

   The key vector is stored in fixed chunks of [1 lsl cbits] ints that
   are appended to and never copied, so it never grows by doubling; only
   the first chunk grows, by doubling from 64 keys up to the full
   chunk. *)

let cbits = 15
let cmask = (1 lsl cbits) - 1

(* Every slot index below is under the capacity, so the access is
   unchecked. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] slot s j = Int32.to_int (get32 s (j lsl 2)) land 0xffff_ffff
let[@inline] set_slot s j x = set32 s (j lsl 2) (Int32.of_int x)

type t = {
  mutable slots : Bytes.t; (* 4 bytes a slot; empty once sealed *)
  mutable lbits : int; (* capacity = 2^lbits *)
  mutable keys : int array array;
  mutable cap : int; (* key capacity *)
  mutable len : int;
}

(* 128 slots, 96 keys before the first growth, 64 keys before the first
   chunk's: small enough that a walk over a tiny product stays in the
   minor heap. *)
let create () =
  {
    slots = Bytes.make (4 * 128) '\000';
    lbits = 7;
    keys = [| Array.make 64 0 |];
    cap = 64;
    len = 0;
  }

let push_key t key =
  if t.len = t.cap then
    if t.cap <= cmask then begin
      let c = Array.make (min (cmask + 1) (2 * t.cap)) 0 in
      Array.blit t.keys.(0) 0 c 0 t.len;
      t.keys.(0) <- c;
      t.cap <- Array.length c
    end
    else begin
      t.keys <- Array.append t.keys [| Array.make (cmask + 1) 0 |];
      t.cap <- t.cap + cmask + 1
    end;
  t.keys.(t.len lsr cbits).(t.len land cmask) <- key;
  t.len <- t.len + 1

(* 62 well-mixed bits. *)
let hash key =
  let h = key lxor (key lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let key_at (ch : int array array) i = ch.(i lsr cbits).(i land cmask)
let length t = t.len
let key t i = key_at t.keys i

(* Double the slots and re-insert every index in order: the keys are
   read sequentially from the vector, not from the old slots. *)
let grow t =
  let lbits = t.lbits + 1 in
  if lbits > 32 then invalid_arg "Inttbl: more than 2^32 slots";
  let slots = Bytes.make (4 lsl lbits) '\000' in
  let mask = (1 lsl lbits) - 1 and tbits = 32 - lbits in
  let ch = t.keys in
  for i = 0 to t.len - 1 do
    let h = hash (key_at ch i) in
    let j = ref (h land mask) in
    while slot slots !j <> 0 do
      j := (!j + 1) land mask
    done;
    set_slot slots !j (((i + 1) lsl tbits) lor (h lsr (62 - tbits)))
  done;
  t.slots <- slots;
  t.lbits <- lbits

let intern t key =
  if Bytes.length t.slots = 0 then invalid_arg "Inttbl.intern: sealed table";
  let n = t.len in
  if 4 * (n + 1) > 3 lsl t.lbits then grow t;
  let slots = t.slots and lbits = t.lbits in
  let mask = (1 lsl lbits) - 1 and tbits = 32 - lbits in
  let tmask = (1 lsl tbits) - 1 in
  let h = hash key in
  let tg = h lsr (62 - tbits) in
  let j = ref (h land mask) in
  let res = ref (-1) in
  while !res < 0 do
    let s = slot slots !j in
    if s = 0 then begin
      set_slot slots !j (((n + 1) lsl tbits) lor tg);
      push_key t key;
      res := n
    end
    else if s land tmask = tg && key_at t.keys ((s lsr tbits) - 1) = key then
      res := (s lsr tbits) - 1
    else j := (!j + 1) land mask
  done;
  !res

let seal t = t.slots <- Bytes.empty
