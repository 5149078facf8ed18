(* Deterministic excitation schedules for the identification tests: the
   paper's (§5) sine-shaped staircase, single-input and all-input
   variation, a step, a PRBS and time concatenation.  The library's own
   identification experiments use [Spectr_sysid.Excitation.random_staircase]. *)

open Spectr_linalg

let staircase ~lo ~hi ~num_levels ~hold ~length =
  if num_levels < 2 then invalid_arg "Signals.staircase: num_levels < 2";
  if hold < 1 then invalid_arg "Signals.staircase: hold < 1";
  if length < 1 then invalid_arg "Signals.staircase: length < 1";
  if hi < lo then invalid_arg "Signals.staircase: hi < lo";
  let period = float_of_int (num_levels * hold * 2) in
  Array.init length (fun k ->
      let phase = 2. *. Float.pi *. float_of_int k /. period in
      let s = (sin phase +. 1.) /. 2. in
      (* quantize to num_levels levels *)
      let level =
        Float.min
          (float_of_int (num_levels - 1))
          (Float.of_int (int_of_float (s *. float_of_int num_levels)))
      in
      lo +. ((hi -. lo) *. level /. float_of_int (num_levels - 1)))

let step ~lo ~hi ~at ~length =
  if length < 1 then invalid_arg "Signals.step: length < 1";
  Array.init length (fun k -> if k < at then lo else hi)

let prbs g ~lo ~hi ~hold ~length =
  if hold < 1 then invalid_arg "Signals.prbs: hold < 1";
  if length < 1 then invalid_arg "Signals.prbs: length < 1";
  let current = ref (if Prng.bool g then hi else lo) in
  Array.init length (fun k ->
      if k mod hold = 0 then
        current := (if Prng.bool g then hi else lo);
      !current)

let all_input_variation ~channels ~hold ~length =
  let m = Array.length channels in
  if m = 0 then invalid_arg "Signals.all_input_variation: no channels";
  (* Phase-shift each channel by shifting its start index. *)
  let per_channel =
    Array.mapi
      (fun i (lo, hi) ->
        let shift = i * hold * 3 in
        let sig_ = staircase ~lo ~hi ~num_levels:6 ~hold ~length:(length + shift) in
        Array.sub sig_ shift length)
      channels
  in
  Array.init length (fun k -> Array.init m (fun i -> per_channel.(i).(k)))

let single_input_variation ~channels ~active ~hold ~length =
  let m = Array.length channels in
  if active < 0 || active >= m then
    invalid_arg "Signals.single_input_variation: active out of range";
  let lo, hi = channels.(active) in
  let sweep = staircase ~lo ~hi ~num_levels:6 ~hold ~length in
  Array.init length (fun k ->
      Array.init m (fun i ->
          if i = active then sweep.(k)
          else
            let lo, hi = channels.(i) in
            (lo +. hi) /. 2.))

let concat segments =
  match segments with
  | [] -> invalid_arg "Signals.concat: empty"
  | first :: _ ->
      let m =
        if Array.length first = 0 then 0 else Array.length first.(0)
      in
      List.iter
        (fun seg ->
          Array.iter
            (fun row ->
              if Array.length row <> m then
                invalid_arg "Signals.concat: channel mismatch")
            seg)
        segments;
      Array.concat segments
