(* Open-addressing int -> int table (linear probing, power-of-two
   capacity): the state map of the index-native product walks.  No
   boxing, no polymorphic hash, no bucket cells — a [Hashtbl] allocates
   a cons per add and generic-hashes every probe.  Keys and values are
   interleaved in one array, so a probe touches one cache line. *)

type t = {
  mutable slots : int array; (* key at 2j (-1 = empty), value at 2j+1 *)
  mutable mask : int; (* capacity - 1, in slots *)
  mutable count : int;
}

(* 128 slots, 64 entries before the first growth: small enough that a
   walk over a tiny product stays in the minor heap. *)
let create () = { slots = Array.make 256 (-1); mask = 127; count = 0 }

let hash key =
  let h = key lxor (key lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let grow t =
  let old = t.slots in
  let cap = Array.length old in
  let slots = Array.make (2 * cap) (-1) in
  let mask = cap - 1 in
  for j = 0 to (cap / 2) - 1 do
    let k = old.(2 * j) in
    if k >= 0 then begin
      let i = ref (hash k land mask) in
      while slots.(2 * !i) >= 0 do
        i := (!i + 1) land mask
      done;
      slots.(2 * !i) <- k;
      slots.((2 * !i) + 1) <- old.((2 * j) + 1)
    end
  done;
  t.slots <- slots;
  t.mask <- mask

let put t key v =
  if 2 * (t.count + 1) > t.mask + 1 then grow t;
  let mask = t.mask in
  let slots = t.slots in
  let j = ref (hash key land mask) in
  let res = ref min_int in
  while !res = min_int do
    let k = slots.(2 * !j) in
    if k = key then res := slots.((2 * !j) + 1)
    else if k < 0 then begin
      slots.(2 * !j) <- key;
      slots.((2 * !j) + 1) <- v;
      t.count <- t.count + 1;
      res := -1
    end
    else j := (!j + 1) land mask
  done;
  !res
