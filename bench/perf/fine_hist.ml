(* Log-linear latency histogram over non-negative integer samples (ns).

   Values below 256 get a bucket each; above that every power of two is
   split into 128 equal sub-buckets, so a bucket is never wider than
   1/128 (< 1 %) of the values it holds — fine enough to resolve a 10 %
   change in a percentile, unlike the power-of-two buckets of
   [Spectr_obs.Histogram].  Recording is allocation-free. *)

let sub_bits = 7
let sub = 1 lsl sub_bits
let buckets = (64 - sub_bits) * sub

type t = { counts : int array; mutable n : int; mutable max : int }

let create () = { counts = Array.make buckets 0; n = 0; max = 0 }

let msb v =
  let r = ref 0 and v = ref v in
  while !v > 1 do
    v := !v lsr 1;
    incr r
  done;
  !r

let index v =
  if v < 2 * sub then v
  else
    let shift = msb v - sub_bits in
    (shift * sub) + (v lsr shift)

(* Smallest value of bucket [b] and the bucket's width. *)
let bounds b =
  if b < 2 * sub then (b, 1)
  else
    let shift = (b lsr sub_bits) - 1 in
    ((sub + (b land (sub - 1))) lsl shift, 1 lsl shift)

let record t v =
  let v = if v < 0 then 0 else v in
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  if v > t.max then t.max <- v

let merge_into ~dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  if src.max > dst.max then dst.max <- src.max

(* The [p]-th percentile (0 < p <= 100): midpoint of the bucket holding
   the sample of rank ceil(p/100 * n), clamped to the exact maximum.
   0 when empty. *)
let percentile t p =
  if t.n = 0 then 0.
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int t.n))) in
    let rec walk i seen =
      let seen = seen + t.counts.(i) in
      if seen >= rank || i = buckets - 1 then i else walk (i + 1) seen
    in
    let low, width = bounds (walk 0 0) in
    Float.min (float_of_int t.max)
      (float_of_int low +. (float_of_int (width - 1) /. 2.))
