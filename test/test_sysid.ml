(* Tests for the system-identification substrate: Excitation, Dataset,
   Arx, Validation, Guardband.  The central scenario mirrors the paper's
   §5 methodology: excite a known plant with a staircase, fit an ARX
   model, validate on held-out data, realize as state space, and design a
   robustly-stable LQG on top. *)

open Spectr_linalg
open Spectr_control
open Spectr_sysid

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Excitation                                                          *)
(* ------------------------------------------------------------------ *)

let test_staircase_range_and_levels () =
  let s = Signals.staircase ~lo:1. ~hi:2. ~num_levels:4 ~hold:5 ~length:200 in
  check_int "length" 200 (Array.length s);
  Array.iter
    (fun v -> check_bool "in range" true (v >= 1. && v <= 2.))
    s;
  (* Only 4 distinct levels *)
  let distinct = List.sort_uniq compare (Array.to_list s) in
  check_bool "at most 4 levels" true (List.length distinct <= 4);
  check_bool "at least 3 levels" true (List.length distinct >= 3)

let test_staircase_validation () =
  Alcotest.check_raises "levels"
    (Invalid_argument "Signals.staircase: num_levels < 2") (fun () ->
      ignore (Signals.staircase ~lo:0. ~hi:1. ~num_levels:1 ~hold:1 ~length:10))

let test_step_signal () =
  let s = Signals.step ~lo:0. ~hi:5. ~at:3 ~length:6 in
  check_float "before" 0. s.(2);
  check_float "after" 5. s.(3)

let test_prbs () =
  let g = Prng.create 9L in
  let s = Signals.prbs g ~lo:(-1.) ~hi:1. ~hold:4 ~length:100 in
  Array.iter (fun v -> check_bool "binary" true (v = -1. || v = 1.)) s;
  (* dwell: value constant within each hold window *)
  for k = 0 to (100 / 4) - 1 do
    for j = 1 to 3 do
      check_float "dwell" s.(k * 4) s.((k * 4) + j)
    done
  done

let test_all_input_variation () =
  let e =
    Signals.all_input_variation
      ~channels:[| (0., 1.); (10., 20.) |]
      ~hold:5 ~length:50
  in
  check_int "length" 50 (Array.length e);
  check_int "channels" 2 (Array.length e.(0));
  Array.iter
    (fun row ->
      check_bool "ch0 range" true (row.(0) >= 0. && row.(0) <= 1.);
      check_bool "ch1 range" true (row.(1) >= 10. && row.(1) <= 20.))
    e

let test_single_input_variation () =
  let e =
    Signals.single_input_variation
      ~channels:[| (0., 1.); (10., 20.) |]
      ~active:0 ~hold:5 ~length:50
  in
  Array.iter (fun row -> check_float "inactive at midpoint" 15. row.(1)) e;
  let ch0 = Array.map (fun r -> r.(0)) e in
  check_bool "active varies" true (Stats.std ch0 > 0.)

let test_random_staircase () =
  let g = Prng.create 21L in
  let s =
    Excitation.random_staircase g ~lo:1. ~hi:6. ~hold:5 ~length:200 ()
  in
  check_int "length" 200 (Array.length s);
  Array.iter (fun v -> check_bool "range" true (v >= 1. && v <= 6.)) s;
  (* dwell: constant within each hold window *)
  for k = 0 to (200 / 5) - 1 do
    for j = 1 to 4 do
      check_float "dwell" s.(k * 5) s.((k * 5) + j)
    done
  done;
  (* quantized to the 6 levels 1, 2, ..., 6 *)
  Array.iter
    (fun v -> check_bool "on-grid" true (Float.is_integer v))
    s;
  check_bool "several levels visited" true
    (List.length (List.sort_uniq compare (Array.to_list s)) >= 3)

let test_random_staircase_independent_streams () =
  (* Two generators split from one master produce decorrelated channels —
     the property the identification excitation depends on. *)
  let master = Prng.create 33L in
  let a =
    Excitation.random_staircase (Prng.split master) ~lo:(-1.) ~hi:1. ~hold:4
      ~length:400 ()
  in
  let b =
    Excitation.random_staircase (Prng.split master) ~lo:(-1.) ~hi:1. ~hold:4
      ~length:400 ()
  in
  check_bool "decorrelated" true
    (abs_float (Stats.cross_correlation a b 0) < 0.2)

let test_excitation_concat () =
  let a =
    Signals.single_input_variation ~channels:[| (0., 1.) |] ~active:0
      ~hold:2 ~length:10
  in
  let c = Signals.concat [ a; a ] in
  check_int "concat length" 20 (Array.length c);
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Signals.concat: channel mismatch") (fun () ->
      ignore
        (Signals.concat
           [ a; Signals.all_input_variation ~channels:[| (0., 1.); (0., 1.) |] ~hold:2 ~length:4 ]))

(* ------------------------------------------------------------------ *)
(* Dataset                                                             *)
(* ------------------------------------------------------------------ *)

let small_dataset =
  Dataset.create
    ~u:[| [| 1. |]; [| 2. |]; [| 3. |]; [| 4. |] |]
    ~y:[| [| 10. |]; [| 20. |]; [| 30. |]; [| 40. |] |]

let test_dataset_create () =
  check_int "length" 4 (Dataset.length small_dataset);
  check_int "inputs" 1 (Dataset.num_inputs small_dataset);
  check_int "outputs" 1 (Dataset.num_outputs small_dataset)

let test_dataset_validation () =
  Alcotest.check_raises "length" (Invalid_argument "Dataset.create: length mismatch")
    (fun () -> ignore (Dataset.create ~u:[| [| 1. |] |] ~y:[| [| 1. |]; [| 2. |] |]));
  Alcotest.check_raises "empty" (Invalid_argument "Dataset.create: empty")
    (fun () -> ignore (Dataset.create ~u:[||] ~y:[||]))

let test_dataset_split () =
  let est, value = Dataset.split small_dataset ~at:0.5 in
  check_int "est" 2 (Dataset.length est);
  check_int "val" 2 (Dataset.length value);
  check_float "val first" 30. value.Dataset.y.(0).(0)

(* ------------------------------------------------------------------ *)
(* ARX: known-system recovery                                          *)
(* ------------------------------------------------------------------ *)

(* Ground truth: y(t) = 0.6 y(t−1) + 0.4 u(t−1) + e(t). *)
let generate_scalar_arx ~noise ~length seed =
  let g = Prng.create seed in
  let u =
    Signals.prbs (Prng.split g) ~lo:(-1.) ~hi:1. ~hold:3 ~length
    |> Array.map (fun v -> [| v |])
  in
  let y = Array.make length [| 0. |] in
  for t = 1 to length - 1 do
    let e = if noise > 0. then Prng.gaussian g ~mu:0. ~sigma:noise else 0. in
    y.(t) <- [| (0.6 *. y.(t - 1).(0)) +. (0.4 *. u.(t - 1).(0)) +. e |]
  done;
  Dataset.create ~u ~y

let fit_or_fail ~na ~nb data =
  match Arx.fit ~na ~nb data with
  | Ok m -> m
  | Error e -> Alcotest.failf "Arx.fit: %a" Arx.pp_error e

let test_arx_recovers_coefficients () =
  let data = generate_scalar_arx ~noise:0. ~length:200 1L in
  let m = fit_or_fail ~na:1 ~nb:1 data in
  check_bool "a coefficient" true
    (abs_float (Matrix.get m.Arx.theta 0 0 -. 0.6) < 1e-6);
  check_bool "b coefficient" true
    (abs_float (Matrix.get m.Arx.theta 0 1 -. 0.4) < 1e-6)

let test_arx_noisy_recovery () =
  let data = generate_scalar_arx ~noise:0.05 ~length:2000 2L in
  let m = fit_or_fail ~na:1 ~nb:1 data in
  check_bool "a near 0.6" true
    (abs_float (Matrix.get m.Arx.theta 0 0 -. 0.6) < 0.05);
  check_bool "b near 0.4" true
    (abs_float (Matrix.get m.Arx.theta 0 1 -. 0.4) < 0.05)

let test_arx_not_enough_data () =
  let data =
    Dataset.create ~u:[| [| 1. |]; [| 1. |] |] ~y:[| [| 1. |]; [| 1. |] |]
  in
  match Arx.fit ~na:2 ~nb:2 data with
  | Error (Arx.Not_enough_data _) -> ()
  | _ -> Alcotest.fail "expected Not_enough_data"

let test_arx_bad_order () =
  match Arx.fit ~na:0 ~nb:1 small_dataset with
  | Error (Arx.Bad_order _) -> ()
  | _ -> Alcotest.fail "expected Bad_order"

let test_arx_prediction_residuals () =
  let data = generate_scalar_arx ~noise:0.05 ~length:1000 3L in
  let m = fit_or_fail ~na:1 ~nb:1 data in
  let t0 = Arx.offset_suffix m in
  let r =
    Array.mapi
      (fun k pred -> data.Dataset.y.(t0 + k).(0) -. pred.(0))
      (Arx.predict_one_step m data)
  in
  (* residual std should match the injected noise level *)
  check_bool "residual sigma ~ noise" true (abs_float (Stats.std r -. 0.05) < 0.02)

let test_arx_simulate_matches_statespace () =
  let data = generate_scalar_arx ~noise:0. ~length:120 4L in
  let m = fit_or_fail ~na:2 ~nb:2 data in
  let ss = Arx.to_statespace m in
  check_int "state dim = na*p + nb*m" 4 (Statespace.order ss);
  (* Free simulation of the ARX model vs the state-space realization:
     both driven by the same inputs from zero initial conditions. *)
  let n = 60 in
  let u = Array.init n (fun t -> [| data.Dataset.u.(t).(0) |]) in
  let ss_u = Array.map (fun row -> Matrix.col_vector row) u in
  let ss_sim = Statespace.simulate ss ~u:ss_u () in
  (* Seed the ARX free simulation with the state-space prefix (the
     realization already responds to u(0) at t=1); from there on the two
     recursions are identical and must coincide. *)
  let y0 = Array.init 2 (fun t -> [| Matrix.to_scalar ss_sim.(t) |]) in
  let arx_sim = Arx.simulate m ~u ~y0 in
  for t = 2 to n - 1 do
    check_bool
      (Printf.sprintf "step %d matches" t)
      true
      (abs_float (arx_sim.(t).(0) -. Matrix.to_scalar ss_sim.(t)) < 1e-6)
  done

let test_arx_statespace_no_feedthrough () =
  let data = generate_scalar_arx ~noise:0. ~length:120 5L in
  let m = fit_or_fail ~na:1 ~nb:1 data in
  let ss = Arx.to_statespace m in
  check_float "D = 0" 0. (Matrix.max_abs ss.Statespace.d)

(* MIMO identification: 2-input 2-output coupled plant. *)
let generate_mimo_dataset ~noise ~length seed =
  let g = Prng.create seed in
  let excitation =
    Signals.all_input_variation
      ~channels:[| (-1., 1.); (-1., 1.) |]
      ~hold:4 ~length
  in
  let y = Array.make length [| 0.; 0. |] in
  for t = 1 to length - 1 do
    let e () = if noise > 0. then Prng.gaussian g ~mu:0. ~sigma:noise else 0. in
    let y1 = y.(t - 1) and u1 = excitation.(t - 1) in
    y.(t) <-
      [|
        (0.5 *. y1.(0)) +. (0.1 *. y1.(1)) +. (0.6 *. u1.(0)) +. (0.1 *. u1.(1)) +. e ();
        (0.05 *. y1.(0)) +. (0.7 *. y1.(1)) +. (0.2 *. u1.(0)) +. (0.5 *. u1.(1)) +. e ();
      |]
  done;
  Dataset.create ~u:excitation ~y

let test_arx_mimo_recovery () =
  let data = generate_mimo_dataset ~noise:0. ~length:400 6L in
  let m = fit_or_fail ~na:1 ~nb:1 data in
  (* theta = [A1 | B1], check a few entries *)
  check_bool "A11" true (abs_float (Matrix.get m.Arx.theta 0 0 -. 0.5) < 1e-6);
  check_bool "A22" true (abs_float (Matrix.get m.Arx.theta 1 1 -. 0.7) < 1e-6);
  check_bool "B11" true (abs_float (Matrix.get m.Arx.theta 0 2 -. 0.6) < 1e-6);
  check_bool "B22" true (abs_float (Matrix.get m.Arx.theta 1 3 -. 0.5) < 1e-6)

(* One-pass standardization reproduces the per-column statistics bit for
   bit: Stats.mean, the 1e-6-floored Stats.std, and (v − mean) / std in
   every row; a constant channel is only demeaned. *)
let test_dataset_standardize () =
  let data = generate_mimo_dataset ~noise:0.02 ~length:300 11L in
  let data =
    Dataset.create
      ~u:(Array.map (fun row -> Array.append row [| 3.5 |]) data.Dataset.u)
      ~y:data.Dataset.y
  in
  let std, (u_mean, u_std), (y_mean, y_std) = Dataset.standardize data in
  let bits = Int64.bits_of_float in
  let check_side side rows mean sd std_rows =
    Array.iteri
      (fun i m ->
        let col = Array.map (fun row -> row.(i)) rows in
        let s = Float.max 1e-6 (Stats.std col) in
        check_bool (Printf.sprintf "%s%d mean" side i) true
          (bits m = bits (Stats.mean col));
        check_bool (Printf.sprintf "%s%d std" side i) true (bits sd.(i) = bits s);
        Array.iteri
          (fun t row ->
            check_bool (Printf.sprintf "%s%d row %d" side i t) true
              (bits std_rows.(t).(i) = bits ((row.(i) -. m) /. s)))
          rows)
      mean
  in
  check_side "u" data.Dataset.u u_mean u_std std.Dataset.u;
  check_side "y" data.Dataset.y y_mean y_std std.Dataset.y;
  check_float "constant input floored" 1e-6 u_std.(2);
  check_float "constant input demeaned" 0. std.Dataset.u.(17).(2)

(* Validation's residual is y − ŷ of its one prediction pass, bit for
   bit: each channel's autocorrelation is exactly that of the residual
   computed here from Arx.predict_one_step. *)
let test_residuals_from_one_prediction () =
  let data = generate_mimo_dataset ~noise:0.02 ~length:400 12L in
  let m = fit_or_fail ~na:2 ~nb:2 data in
  let t0 = Arx.offset_suffix m in
  let preds = Arx.predict_one_step m data in
  let report = Validation.validate ~model:m data in
  let bits = Int64.bits_of_float in
  Array.iteri
    (fun i c ->
      let resid =
        Array.mapi (fun k pred -> data.Dataset.y.(t0 + k).(i) -. pred.(i)) preds
      in
      check_bool
        (Printf.sprintf "channel %d autocorrelation bit-exact" i)
        true
        (Array.for_all2
           (fun (k, v) (k', v') -> k = k' && bits v = bits v')
           (Stats.autocorrelations resid ~max_lag:20)
           c.Validation.residual_autocorr))
    report.Validation.channels

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let test_validation_good_model () =
  let data = generate_mimo_dataset ~noise:0.02 ~length:1200 7L in
  let est, held_out = Dataset.split data ~at:0.7 in
  let m = fit_or_fail ~na:1 ~nb:1 est in
  let report = Validation.validate ~model:m held_out in
  check_bool "identifiable" true report.Validation.identifiable;
  Array.iter
    (fun c ->
      check_bool (c.Validation.name ^ " R2 >= 0.8") true (c.Validation.r_squared >= 0.8);
      check_bool (c.Validation.name ^ " fit > 50%") true (c.Validation.fit_percent > 50.);
      (* white residual: almost all lags inside the 99% band *)
      check_bool
        (c.Validation.name ^ " few violations")
        true
        (c.Validation.violations <= 4))
    report.Validation.channels

let test_validation_wrong_model_worse () =
  (* Fit on one system, validate on a different one: fit must degrade and
     residuals must show structure. *)
  let data_a = generate_mimo_dataset ~noise:0.02 ~length:600 8L in
  let m = fit_or_fail ~na:1 ~nb:1 data_a in
  (* different dynamics *)
  let g = Prng.create 99L in
  let length = 400 in
  let u =
    Signals.all_input_variation ~channels:[| (-1., 1.); (-1., 1.) |] ~hold:4
      ~length
  in
  let y = Array.make length [| 0.; 0. |] in
  for t = 1 to length - 1 do
    let y1 = y.(t - 1) and u1 = u.(t - 1) in
    let e () = Prng.gaussian g ~mu:0. ~sigma:0.02 in
    y.(t) <-
      [|
        (0.9 *. y1.(0)) -. (0.3 *. y1.(1)) +. (0.1 *. u1.(0)) +. e ();
        (-0.4 *. y1.(0)) +. (0.2 *. y1.(1)) +. (0.9 *. u1.(1)) +. e ();
      |]
  done;
  let other = Dataset.create ~u ~y in
  let report_wrong = Validation.validate ~model:m other in
  let report_right =
    Validation.validate ~model:(fit_or_fail ~na:1 ~nb:1 other) other
  in
  let fit_of r i = r.Validation.channels.(i).Validation.fit_percent in
  check_bool "wrong model fits worse on ch0" true
    (fit_of report_wrong 0 < fit_of report_right 0);
  check_bool "wrong model fits worse on ch1" true
    (fit_of report_wrong 1 < fit_of report_right 1)

let test_validation_output_names () =
  let data = generate_scalar_arx ~noise:0.02 ~length:300 10L in
  let m = fit_or_fail ~na:1 ~nb:1 data in
  let report = Validation.validate ~output_names:[| "power" |] ~model:m data in
  check_bool "named" true
    (report.Validation.channels.(0).Validation.name = "power")

(* ------------------------------------------------------------------ *)
(* Guardband                                                           *)
(* ------------------------------------------------------------------ *)

let two_outputs =
  Statespace.create
    ~a:(Matrix.of_list [ [ 0.5; 0. ]; [ 0.; 0.5 ] ])
    ~b:(Matrix.identity 2) ~c:(Matrix.identity 2) ()

(* The corners scale the QoS row of C by 1 ± 0.5 and the power row by
   1 ± 0.3 (§5, footnote 7). *)
let test_guardband_defaults () =
  let scales row =
    List.map
      (fun m -> Matrix.get m.Statespace.c row row)
      (Guardband.perturbed_models two_outputs)
    |> List.sort_uniq compare
  in
  check_bool "qos 1 +- 0.5" true (scales 0 = [ 0.5; 1.5 ]);
  check_bool "power 1 +- 0.3" true (scales 1 = [ 0.7; 1.3 ])

let test_guardband_corner_count () =
  check_int "2^p corners" 4 (List.length (Guardband.perturbed_models two_outputs))

let test_guardband_scales_outputs () =
  let model =
    Statespace.create
      ~a:(Matrix.of_list [ [ 0.5 ] ])
      ~b:(Matrix.of_list [ [ 1. ] ])
      ~c:(Matrix.of_list [ [ 2. ] ])
      ()
  in
  let corners = Guardband.perturbed_models model in
  let cs =
    List.map (fun m -> Matrix.get m.Statespace.c 0 0) corners
    |> List.sort_uniq compare
  in
  check_bool "includes 1 and 3" true (List.mem 1. cs && List.mem 3. cs)

let test_robust_stability_of_identified_design () =
  (* Full §6 pipeline: excite -> fit -> validate -> realize -> LQG ->
     robustness gate. *)
  let data = generate_mimo_dataset ~noise:0.02 ~length:1500 11L in
  let est, held_out = Dataset.split data ~at:0.7 in
  let m = fit_or_fail ~na:1 ~nb:1 est in
  let report = Validation.validate ~model:m held_out in
  check_bool "identifiable" true report.Validation.identifiable;
  let ss = Arx.to_statespace m in
  match
    Lqg.design ~label:"qos" ~model:ss ~q_y:[| 30.; 1. |] ~r_u:[| 1.; 2. |] ()
  with
  | Error e -> Alcotest.failf "Lqg.design: %a" Lqg.pp_error e
  | Ok gains ->
      check_bool "nominal loop decays" true
        (Statespace.decays
           (Guardband.closed_loop_matrix ~gains ~plant:gains.Lqg.model));
      check_bool "robust under paper guardbands" true
        (Guardband.robustly_stable gains)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "spectr_sysid"
    [
      ( "excitation",
        [
          Alcotest.test_case "staircase range/levels" `Quick
            test_staircase_range_and_levels;
          Alcotest.test_case "staircase validation" `Quick
            test_staircase_validation;
          Alcotest.test_case "step" `Quick test_step_signal;
          Alcotest.test_case "prbs" `Quick test_prbs;
          Alcotest.test_case "all-input variation" `Quick
            test_all_input_variation;
          Alcotest.test_case "single-input variation" `Quick
            test_single_input_variation;
          Alcotest.test_case "random staircase" `Quick test_random_staircase;
          Alcotest.test_case "independent streams" `Quick
            test_random_staircase_independent_streams;
          Alcotest.test_case "concat" `Quick test_excitation_concat;
        ] );
      ( "dataset",
        [
          Alcotest.test_case "create" `Quick test_dataset_create;
          Alcotest.test_case "validation" `Quick test_dataset_validation;
          Alcotest.test_case "split" `Quick test_dataset_split;
          Alcotest.test_case "standardize" `Quick test_dataset_standardize;
        ] );
      ( "arx",
        [
          Alcotest.test_case "exact recovery" `Quick
            test_arx_recovers_coefficients;
          Alcotest.test_case "noisy recovery" `Quick test_arx_noisy_recovery;
          Alcotest.test_case "not enough data" `Quick test_arx_not_enough_data;
          Alcotest.test_case "bad order" `Quick test_arx_bad_order;
          Alcotest.test_case "residual level" `Quick
            test_arx_prediction_residuals;
          Alcotest.test_case "residuals from one prediction" `Quick
            test_residuals_from_one_prediction;
          Alcotest.test_case "state-space equivalence" `Quick
            test_arx_simulate_matches_statespace;
          Alcotest.test_case "no feedthrough" `Quick
            test_arx_statespace_no_feedthrough;
          Alcotest.test_case "MIMO recovery" `Quick test_arx_mimo_recovery;
        ] );
      ( "validation",
        [
          Alcotest.test_case "good model" `Quick test_validation_good_model;
          Alcotest.test_case "wrong model worse" `Quick
            test_validation_wrong_model_worse;
          Alcotest.test_case "output names" `Quick test_validation_output_names;
        ] );
      ( "guardband",
        [
          Alcotest.test_case "paper defaults" `Quick test_guardband_defaults;
          Alcotest.test_case "corner count" `Quick test_guardband_corner_count;
          Alcotest.test_case "scales outputs" `Quick
            test_guardband_scales_outputs;
          Alcotest.test_case "robust identified design" `Quick
            test_robust_stability_of_identified_design;
        ] );
    ]
