let num_levels = 6

let random_staircase g ~lo ~hi ~hold ~length () =
  if hold < 1 then invalid_arg "Excitation.random_staircase: hold < 1";
  if length < 1 then invalid_arg "Excitation.random_staircase: length < 1";
  if hi < lo then invalid_arg "Excitation.random_staircase: hi < lo";
  let current = ref lo in
  let draw () =
    let level = Spectr_linalg.Prng.int g num_levels in
    lo +. ((hi -. lo) *. float_of_int level /. float_of_int (num_levels - 1))
  in
  Array.init length (fun k ->
      if k mod hold = 0 then current := draw ();
      !current)
