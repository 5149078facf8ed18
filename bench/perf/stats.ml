(* Order statistics over small float samples (per-round values).  Medians
   and percentiles come from [Spectr_linalg.Stats.percentile]; only the
   quartiles are computed here, by a different method on purpose. *)

let median xs = Spectr_linalg.Stats.percentile (Array.of_list xs) 50.

(* First and third quartiles by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so a spread computed here matches
   one computed from the --json files with Python. *)
let quartiles xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Stats.quartiles: empty"
  | [ x ] -> (x, x)
  | s ->
      let a = Array.of_list s in
      let ld = Array.length a in
      let m = ld + 1 in
      let q i =
        let j = max 1 (min (ld - 1) (i * m / 4)) in
        let delta = (i * m) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
        /. 4.
      in
      (q 1, q 3)

(* Interquartile distance as a share of the median (0 when the median
   is 0). *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else Float.abs (q3 -. q1) /. Float.abs m
