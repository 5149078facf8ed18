type t = {
  name : string;
  freqs_mhz : int array;
  volts : float array;
  uniform_step_mhz : int; (* common gap when evenly spaced, else 0 *)
}

let create ~name ~points =
  if points = [] then invalid_arg "Opp.create: empty table";
  let freqs = Array.of_list (List.map fst points) in
  let volts = Array.of_list (List.map snd points) in
  Array.iteri
    (fun i f ->
      if i > 0 && f <= freqs.(i - 1) then
        invalid_arg "Opp.create: frequencies must ascend")
    freqs;
  Array.iter
    (fun v -> if v <= 0. then invalid_arg "Opp.create: voltage must be positive")
    volts;
  (* Real cpufreq tables (and both built-in ramps) are evenly spaced;
     detecting that once here lets [nearest]/[index] run in O(1) on the
     actuation path instead of scanning the table. *)
  let uniform_step_mhz =
    let n = Array.length freqs in
    if n < 2 then 0
    else begin
      let step = freqs.(1) - freqs.(0) in
      let ok = ref true in
      for i = 2 to n - 1 do
        if freqs.(i) - freqs.(i - 1) <> step then ok := false
      done;
      if !ok then step else 0
    end
  in
  { name; freqs_mhz = freqs; volts; uniform_step_mhz }

(* Linear voltage ramps approximating the Exynos 5422 tables. *)
let ramp ~name ~lo_mhz ~hi_mhz ~lo_v ~hi_v =
  let n = ((hi_mhz - lo_mhz) / 100) + 1 in
  let points =
    List.init n (fun i ->
        let f = lo_mhz + (i * 100) in
        let frac = float_of_int (f - lo_mhz) /. float_of_int (hi_mhz - lo_mhz) in
        (f, lo_v +. ((hi_v -. lo_v) *. frac)))
  in
  create ~name ~points

let big = ramp ~name:"big-a15" ~lo_mhz:200 ~hi_mhz:2000 ~lo_v:0.90 ~hi_v:1.3625
let little = ramp ~name:"little-a7" ~lo_mhz:200 ~hi_mhz:1400 ~lo_v:0.90 ~hi_v:1.25

let min_freq t = t.freqs_mhz.(0)
let max_freq t = t.freqs_mhz.(Array.length t.freqs_mhz - 1)
let num_points t = Array.length t.freqs_mhz

let nearest_scan t f_mhz =
  let best = ref t.freqs_mhz.(0) in
  let best_d = ref (abs_float (float_of_int !best -. f_mhz)) in
  Array.iter
    (fun f ->
      let d = abs_float (float_of_int f -. f_mhz) in
      if d < !best_d then begin
        best := f;
        best_d := d
      end)
    t.freqs_mhz;
  !best

let[@inline] nearest t f_mhz =
  let n = Array.length t.freqs_mhz in
  if t.uniform_step_mhz > 0 && n > 1 && Float.is_finite f_mhz then begin
    (* The nearest grid point is the floor cell's endpoint or its
       successor; comparing those two distances reproduces the scan's
       tie-break (strict [<] keeps the earlier, i.e. lower, frequency). *)
    let lo = float_of_int t.freqs_mhz.(0) in
    let step = float_of_int t.uniform_step_mhz in
    let k = int_of_float (floor ((f_mhz -. lo) /. step)) in
    let k = if k < 0 then 0 else if k > n - 2 then n - 2 else k in
    let fk = t.freqs_mhz.(k) in
    let fk1 = t.freqs_mhz.(k + 1) in
    if abs_float (float_of_int fk -. f_mhz)
       <= abs_float (float_of_int fk1 -. f_mhz)
    then fk
    else fk1
  end
  else nearest_scan t f_mhz

(* Controller outputs can be garbage (a diverged integrator, a NaN from a
   corrupted measurement): non-finite or negative requests clamp to the
   nearest legal end, NaN conservatively to the low one. *)
let request_at t u ~at =
  let f_mhz = u.(at) *. 1000. in
  if Float.is_nan f_mhz then min_freq t
  else if f_mhz = Float.infinity then max_freq t
  else if f_mhz = Float.neg_infinity || f_mhz < 0. then min_freq t
  else nearest t f_mhz

let index t f =
  let not_an_opp () =
    invalid_arg (Printf.sprintf "Opp.index: %d MHz not an OPP of %s" f t.name)
  in
  if t.uniform_step_mhz > 0 then begin
    let off = f - t.freqs_mhz.(0) in
    let k = off / t.uniform_step_mhz in
    if
      off >= 0
      && off mod t.uniform_step_mhz = 0
      && k < Array.length t.freqs_mhz
    then k
    else not_an_opp ()
  end
  else begin
    let rec find i =
      if i >= Array.length t.freqs_mhz then not_an_opp ()
      else if t.freqs_mhz.(i) = f then i
      else find (i + 1)
    in
    find 0
  end

let voltage t f = t.volts.(index t f)
