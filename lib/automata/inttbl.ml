(* First-seen numbering of non-negative int keys: the state table of the
   index-native product walks.  The table owns the key vector, in
   discovery order, so the vector doubles as the BFS queue; the
   open-addressing slots (linear probing, power-of-two capacity, load
   at most 3/4) hold only an index and a few hash bits.  No boxing, no
   polymorphic hash, no bucket cells, and a key is stored once.

   A slot is [-1] when empty, else [(index lsl tbits) lor tag], where
   [tag] is hash bits above any mask: a probe reads the key from the
   vector only when the tags agree.

   The key vector is stored in fixed chunks of [1 lsl cbits] ints that
   are appended to and never copied, so it never grows by doubling; only
   the first chunk grows, by doubling from 64 keys up to the full
   chunk. *)

let tbits = 16
let tmask = (1 lsl tbits) - 1
let cbits = 15
let cmask = (1 lsl cbits) - 1

type t = {
  mutable slots : int array;
  mutable mask : int; (* capacity - 1 *)
  mutable keys : int array array;
  mutable cap : int; (* key capacity *)
  mutable len : int;
}

(* 128 slots, 96 keys before the first growth, 64 keys before the first
   chunk's: small enough that a walk over a tiny product stays in the
   minor heap. *)
let create () =
  {
    slots = Array.make 128 (-1);
    mask = 127;
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

let hash key =
  let h = key lxor (key lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let key_at (ch : int array array) i = ch.(i lsr cbits).(i land cmask)
let length t = t.len
let key t i = key_at t.keys i

let tag h = (h lsr (62 - tbits)) land tmask

(* Double the slots and re-insert every index in order: the keys are
   read sequentially from the vector, not from the old slots. *)
let grow t =
  let cap = 2 * (t.mask + 1) in
  let slots = Array.make cap (-1) in
  let mask = cap - 1 in
  let ch = t.keys in
  for i = 0 to t.len - 1 do
    let h = hash (key_at ch i) in
    let j = ref (h land mask) in
    while slots.(!j) >= 0 do
      j := (!j + 1) land mask
    done;
    slots.(!j) <- (i lsl tbits) lor tag h
  done;
  t.slots <- slots;
  t.mask <- mask

let intern t key =
  let n = t.len in
  if 4 * (n + 1) > 3 * (t.mask + 1) then grow t;
  let mask = t.mask and slots = t.slots in
  let h = hash key in
  let tg = tag h in
  let j = ref (h land mask) in
  let res = ref (-1) in
  while !res < 0 do
    let s = slots.(!j) in
    if s < 0 then begin
      slots.(!j) <- (n lsl tbits) lor tg;
      push_key t key;
      res := n
    end
    else if s land tmask = tg && key_at t.keys (s lsr tbits) = key then
      res := s lsr tbits
    else j := (!j + 1) land mask
  done;
  !res
