let require_nonempty name x =
  if Array.length x = 0 then invalid_arg (Printf.sprintf "Stats.%s: empty" name)

let mean x =
  require_nonempty "mean" x;
  Array.fold_left ( +. ) 0. x /. float_of_int (Array.length x)

let variance x =
  require_nonempty "variance" x;
  let m = mean x in
  Array.fold_left (fun acc v -> acc +. ((v -. m) ** 2.)) 0. x
  /. float_of_int (Array.length x)

let std x = sqrt (variance x)

let demean x =
  let m = mean x in
  Array.map (fun v -> v -. m) x

(* The lag-[k] (k >= 0) sum of a demeaned series; lag 0 is its energy. *)
let lagged_sum xd k =
  let s = ref 0. in
  for t = 0 to Array.length xd - 1 - k do
    s := !s +. (xd.(t) *. xd.(t + k))
  done;
  !s

(* Lags 0..max_lag from one demeaned copy and one energy sum. *)
let nonnegative_lags x ~max_lag =
  require_nonempty "autocorrelation" x;
  if max_lag >= Array.length x then
    invalid_arg "Stats.autocorrelation: lag too large";
  let xd = demean x in
  let denom = lagged_sum xd 0 in
  Array.init (max_lag + 1) (fun k ->
      if denom = 0. then 0. else lagged_sum xd k /. denom)

let autocorrelation x k = (nonnegative_lags x ~max_lag:(abs k)).(abs k)

(* Each |k| is computed once and mirrored. *)
let autocorrelations x ~max_lag =
  let r = nonnegative_lags x ~max_lag in
  Array.init ((2 * max_lag) + 1) (fun i ->
      let k = i - max_lag in
      (k, r.(abs k)))

let cross_correlation x y k =
  require_nonempty "cross_correlation" x;
  if Array.length x <> Array.length y then
    invalid_arg "Stats.cross_correlation: length mismatch";
  let n = Array.length x in
  if abs k >= n then invalid_arg "Stats.cross_correlation: lag too large";
  let xd = demean x and yd = demean y in
  let sx = Array.fold_left (fun a v -> a +. (v *. v)) 0. xd in
  let sy = Array.fold_left (fun a v -> a +. (v *. v)) 0. yd in
  let denom = sqrt (sx *. sy) in
  if denom = 0. then 0.
  else begin
    let num = ref 0. in
    (* positive k: y lags x *)
    if k >= 0 then
      for t = 0 to n - 1 - k do
        num := !num +. (xd.(t) *. yd.(t + k))
      done
    else
      for t = 0 to n - 1 + k do
        num := !num +. (xd.(t - k) *. yd.(t))
      done;
    !num /. denom
  end

let confidence_interval_99 n =
  if n <= 0 then invalid_arg "Stats.confidence_interval_99: n <= 0";
  2.576 /. sqrt (float_of_int n)

let check_pair name actual predicted =
  require_nonempty name actual;
  if Array.length actual <> Array.length predicted then
    invalid_arg (Printf.sprintf "Stats.%s: length mismatch" name)

(* A constant actual series carries no information to explain: both
   fit statistics read [nan] for it, whatever the prediction, so any
   [>=] gate on them fails. *)
let r_squared ~actual ~predicted =
  check_pair "r_squared" actual predicted;
  let m = mean actual in
  let ss_tot =
    Array.fold_left (fun acc v -> acc +. ((v -. m) ** 2.)) 0. actual
  in
  let ss_res = ref 0. in
  Array.iteri
    (fun i v -> ss_res := !ss_res +. ((v -. predicted.(i)) ** 2.))
    actual;
  if ss_tot = 0. then nan else 1. -. (!ss_res /. ss_tot)

let fit_percent ~actual ~predicted =
  check_pair "fit_percent" actual predicted;
  let m = mean actual in
  let err = ref 0. and dev = ref 0. in
  for i = 0 to Array.length actual - 1 do
    err := !err +. ((actual.(i) -. predicted.(i)) ** 2.);
    dev := !dev +. ((actual.(i) -. m) ** 2.)
  done;
  if !dev = 0. then nan else 100. *. (1. -. (sqrt !err /. sqrt !dev))

let rmse ~actual ~predicted =
  check_pair "rmse" actual predicted;
  let n = Array.length actual in
  let s = ref 0. in
  for i = 0 to n - 1 do
    s := !s +. ((actual.(i) -. predicted.(i)) ** 2.)
  done;
  sqrt (!s /. float_of_int n)

let percentile x p =
  require_nonempty "percentile" x;
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy x in
  Array.sort compare sorted;
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let steady_state_error ~reference ~measured ~tail =
  require_nonempty "steady_state_error" measured;
  if tail <= 0 then invalid_arg "Stats.steady_state_error: tail <= 0";
  let n = Array.length measured in
  let k = min tail n in
  let s = ref 0. in
  for i = n - k to n - 1 do
    s := !s +. (reference -. measured.(i))
  done;
  let avg = !s /. float_of_int k in
  if reference = 0. then avg else 100. *. avg /. reference
