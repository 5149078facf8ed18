(* SplitMix64 with the 64-bit state stored as the raw IEEE-754 bit
   pattern of a float field.  A [mutable state : int64] field boxes a
   fresh Int64 on every store (two boxes per gaussian draw), which is
   what kept the tick kernel from reaching zero allocations; an
   all-float record is flat, so the state update compiles to an unboxed
   load/op/store.  [Int64.bits_of_float]/[float_of_bits] are lossless
   bit casts (moves, no FP arithmetic), so the generated stream is
   bit-identical to the boxed representation. *)
type t = { mutable bits : float }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { bits = Int64.float_of_bits seed }

let mix_seed seed index =
  Int64.add
    (Int64.mul golden_gamma (Int64.of_int (index + 1)))
    (Int64.mul 0xBF58476D1CE4E5B9L (Int64.of_int seed))

let blit ~src ~dst = dst.bits <- src.bits

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] int64 g =
  let s = Int64.add (Int64.bits_of_float g.bits) golden_gamma in
  g.bits <- Int64.float_of_bits s;
  mix s

let split g =
  let s = int64 g in
  { bits = Int64.float_of_bits (mix s) }

let[@inline] float g =
  (* 53 high bits -> [0,1) *)
  let bits = Int64.shift_right_logical (int64 g) 11 in
  Int64.to_float bits /. 9007199254740992.0

(* [float g < p] behind a [bool] return: the draw crosses no module
   boundary as a boxed float. *)
let chance g p = float g < p

let uniform g ~lo ~hi =
  if hi < lo then invalid_arg "Prng.uniform: hi < lo";
  lo +. ((hi -. lo) *. float g)

let[@inline] gaussian g ~mu ~sigma =
  (* Box–Muller.  The retry loop replaces the predecessor's local
     recursive [nonzero] closure (a heap block per draw); the draw
     sequence and arithmetic are unchanged. *)
  let u1 = ref (float g) in
  while not (!u1 > 0.) do
    u1 := float g
  done;
  let u2 = float g in
  let z = sqrt (-2. *. log !u1) *. cos (2. *. Float.pi *. u2) in
  mu +. (sigma *. z)

let[@inline] skip_gaussian g =
  (* Advance the state exactly as [gaussian] would — the u1 retry loop
     plus the u2 draw — without evaluating any transcendental.  Lets a
     caller skip draws whose values it can prove it does not need (or
     will materialize later from a saved state) while keeping every
     subsequent draw bit-identical. *)
  let u1 = ref (float g) in
  while not (!u1 > 0.) do
    u1 := float g
  done;
  (* u2: state advance only; its mixed output feeds no state. *)
  g.bits <- Int64.float_of_bits (Int64.add (Int64.bits_of_float g.bits) golden_gamma)

let noisy_into g ~sigma ~dst ~pos ~len =
  (* Multiplicative-noise kernel: dst.(i) <- dst.(i) * (1 + N(0, sigma)).
     Without the native-code optimiser, a cross-module call returning a
     float boxes its result (~16 B) at every call site; writing into a
     caller-owned float array keeps the per-tick sensor path
     allocation-free.  The draw sequence and arithmetic replicate
     [v *. (1. +. gaussian ~mu:0. ~sigma)] bit-for-bit, including the
     "no draw when sigma <= 0" convention of the platform's noisy-sensor
     helper. *)
  if sigma > 0. then
    for i = pos to pos + len - 1 do
      let u1 = ref (float g) in
      while not (!u1 > 0.) do
        u1 := float g
      done;
      let u2 = float g in
      let z = sqrt (-2. *. log !u1) *. cos (2. *. Float.pi *. u2) in
      dst.(i) <- dst.(i) *. (1. +. (0. +. (sigma *. z)))
    done

let bool g = Int64.logand (int64 g) 1L = 1L

let int g n =
  if n <= 0 then invalid_arg "Prng.int: n <= 0";
  (* Shift by 2 so the value fits OCaml's 63-bit native int without
     wrapping negative. *)
  let x = Int64.to_int (Int64.shift_right_logical (int64 g) 2) in
  x mod n
