type t = { u : float array array; y : float array array }

let create ~u ~y =
  let n = Array.length u in
  if n = 0 then invalid_arg "Dataset.create: empty";
  if Array.length y <> n then invalid_arg "Dataset.create: length mismatch";
  let m = Array.length u.(0) and p = Array.length y.(0) in
  if m = 0 || p = 0 then invalid_arg "Dataset.create: zero channels";
  Array.iter
    (fun row -> if Array.length row <> m then invalid_arg "Dataset.create: ragged u")
    u;
  Array.iter
    (fun row -> if Array.length row <> p then invalid_arg "Dataset.create: ragged y")
    y;
  { u; y }

let length d = Array.length d.u
let num_inputs d = Array.length d.u.(0)
let num_outputs d = Array.length d.y.(0)

let split d ~at =
  if at <= 0. || at >= 1. then invalid_arg "Dataset.split: at not in (0,1)";
  let n = length d in
  let k = int_of_float (float_of_int n *. at) in
  if k = 0 || k = n then invalid_arg "Dataset.split: empty partition";
  ( { u = Array.sub d.u 0 k; y = Array.sub d.y 0 k },
    { u = Array.sub d.u k (n - k); y = Array.sub d.y k (n - k) } )

(* Per-channel (mean, std) of [rows], the std floored at 1e-6: the same
   left-to-right sums as [Stats.mean] and [Stats.std] of the column, but
   every channel's sum advances in the same pass over the rows (one for
   the means, one for the squared deviations). *)
let channel_stats rows =
  let n = Array.length rows and k = Array.length rows.(0) in
  let sum = Array.make k 0. in
  Array.iter
    (fun row ->
      for i = 0 to k - 1 do
        sum.(i) <- sum.(i) +. row.(i)
      done)
    rows;
  let mean = Array.map (fun s -> s /. float_of_int n) sum in
  let sq = Array.make k 0. in
  Array.iter
    (fun row ->
      for i = 0 to k - 1 do
        sq.(i) <- sq.(i) +. ((row.(i) -. mean.(i)) ** 2.)
      done)
    rows;
  let std =
    Array.map (fun s -> Float.max 1e-6 (sqrt (s /. float_of_int n))) sq
  in
  (mean, std)

let standardize_rows (mean, std) rows =
  let k = Array.length mean in
  Array.map
    (fun row ->
      let out = Array.create_float k in
      for i = 0 to k - 1 do
        out.(i) <- (row.(i) -. mean.(i)) /. std.(i)
      done;
      out)
    rows

let standardize d =
  let u_stats = channel_stats d.u and y_stats = channel_stats d.y in
  ( { u = standardize_rows u_stats d.u; y = standardize_rows y_stats d.y },
    u_stats,
    y_stats )
