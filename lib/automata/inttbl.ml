(* First-seen numbering of non-negative int keys: the state table of the
   index-native product walks.  The table owns the key vector, in
   discovery order, so the vector doubles as the BFS queue; the
   open-addressing slots (linear probing, power-of-two capacity, load
   at most 3/4) hold only an index and a few hash bits.  No boxing, no
   polymorphic hash, no bucket cells, and a key is stored once.

   A slot is [-1] when empty, else [(index lsl tbits) lor tag], where
   [tag] is hash bits above any mask: a probe reads the key from the
   vector only when the tags agree. *)

let tbits = 16
let tmask = (1 lsl tbits) - 1

type t = {
  mutable slots : int array;
  mutable mask : int; (* capacity - 1 *)
  keys : Intvec.t;
}

(* 128 slots, 96 keys before the first growth: small enough that a
   walk over a tiny product stays in the minor heap. *)
let create () =
  { slots = Array.make 128 (-1); mask = 127; keys = Intvec.create () }

let hash key =
  let h = key lxor (key lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

(* A key read in place from the vector's chunks (the [Intvec.t] layout):
   [intern] runs once per product transition, and a call per probe
   would cost more than the read. *)
let key_at (ch : int array array) i = ch.(i lsr 15).(i land 0x7fff)

let length t = t.keys.len
let key t i = key_at t.keys.chunks i

let tag h = (h lsr (62 - tbits)) land tmask

(* Double the slots and re-insert every index in order: the keys are
   read sequentially from the vector, not from the old slots. *)
let grow t =
  let cap = 2 * (t.mask + 1) in
  let slots = Array.make cap (-1) in
  let mask = cap - 1 in
  let ch = t.keys.chunks in
  for i = 0 to t.keys.len - 1 do
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
  let n = t.keys.len in
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
      Intvec.push t.keys key;
      res := n
    end
    else if s land tmask = tg && key_at t.keys.chunks (s lsr tbits) = key then
      res := s lsr tbits
    else j := (!j + 1) land mask
  done;
  !res
