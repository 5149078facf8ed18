(* Tests for the classical-control substrate: Statespace, Lqr, Kalman,
   Lqg, Mimo, Pid.  Integration tests close the loop around small linear
   plants and check reference tracking — the behaviour the SPECTR leaf
   controllers rely on. *)

open Spectr_linalg
open Spectr_control

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-3))

let m22 a b c d = Matrix.of_list [ [ a; b ]; [ c; d ] ]

(* A well-behaved 2-state, 2-input, 2-output test model. *)
let model_2x2 =
  Statespace.create
    ~a:(m22 0.7 0.1 0.0 0.6)
    ~b:(m22 0.5 0.1 0.05 0.4)
    ~c:(m22 1.0 0.0 0.0 1.0)
    ()

(* A scalar model. *)
let model_1x1 =
  Statespace.create
    ~a:(Matrix.of_list [ [ 0.8 ] ])
    ~b:(Matrix.of_list [ [ 0.5 ] ])
    ~c:(Matrix.of_list [ [ 1.0 ] ])
    ()

(* ------------------------------------------------------------------ *)
(* Statespace                                                          *)
(* ------------------------------------------------------------------ *)

let test_ss_dims () =
  check_int "order" 2 (Statespace.order model_2x2);
  check_int "inputs" 2 (Statespace.num_inputs model_2x2);
  check_int "outputs" 2 (Statespace.num_outputs model_2x2)

let test_ss_create_invalid () =
  Alcotest.check_raises "B rows"
    (Invalid_argument "Statespace.create: B rows <> n") (fun () ->
      ignore
        (Statespace.create ~a:(Matrix.identity 2)
           ~b:(Matrix.of_list [ [ 1. ] ])
           ~c:(Matrix.identity 2) ()))

let test_ss_step () =
  let x = Matrix.col_vector [| 1.; 0. |] in
  let u = Matrix.col_vector [| 0.; 0. |] in
  let x', y = Statespace.step model_2x2 ~x ~u in
  check_float "x'0" 0.7 (Matrix.get x' 0 0);
  check_float "y0" 1. (Matrix.get y 0 0)

let test_ss_simulate_impulse () =
  (* scalar: x+ = 0.8x + 0.5u, y = x.  Impulse response: 0, 0.5, 0.4, ... *)
  let u =
    Array.init 4 (fun i ->
        Matrix.col_vector [| (if i = 0 then 1. else 0.) |])
  in
  let ys = Statespace.simulate model_1x1 ~u () in
  check_float "y0" 0. (Matrix.to_scalar ys.(0));
  check_float "y1" 0.5 (Matrix.to_scalar ys.(1));
  check_float "y2" 0.4 (Matrix.to_scalar ys.(2));
  check_float "y3" 0.32 (Matrix.to_scalar ys.(3))

let test_ss_dc_gain () =
  (* scalar dc gain = c*b/(1-a) = 0.5/0.2 = 2.5 *)
  check_float "dc" 2.5 (Matrix.to_scalar (Statespace.dc_gain model_1x1))

let test_ss_stability () =
  check_bool "stable model" true (Statespace.decays model_2x2.Statespace.a);
  (* Radii whose 2^16-th power lands at 0.4 and 0.6: the last squaring
     decides.  Each row of [[r; 0]; [r; 0]]^k sums to r^k and its first
     column to 2 r^k, so that case passes on row sums only. *)
  let r v = v ** (1. /. 65536.) in
  List.iter
    (fun (name, rows, expected) ->
      check_bool name expected (Statespace.decays (Matrix.of_list rows)))
    [
      ("1.1 grows", [ [ 1.1 ] ], false);
      ("0.9996 decays", [ [ 0.9996 ] ], true);
      (* modes on the unit circle: an undriven integrator keeps its
         norm at 1, a Jordan block at 1 grows linearly *)
      ("identity", [ [ 1.; 0. ]; [ 0.; 1. ] ], false);
      ("Jordan block at 1", [ [ 1.; 1. ]; [ 0.; 1. ] ], false);
      ("300 I overflows", [ [ 300.; 0. ]; [ 0.; 300. ] ], false);
      ("NaN entry", [ [ 0.5; Float.nan ]; [ 0.; 0.5 ] ], false);
      ("row sums pass at j = 16", [ [ r 0.4; 0. ]; [ r 0.4; 0. ] ], true);
      ("too slow at j = 16", [ [ r 0.6 ] ], false);
    ];
  Alcotest.check_raises "not square"
    (Invalid_argument "Statespace.decays: not square") (fun () ->
      ignore (Statespace.decays (Matrix.zeros ~rows:2 ~cols:3)))

(* The strict-decay verdict by fresh products: A^(2^j) by [Matrix.mul],
   row sums by [Matrix.to_arrays].  [Some j] for the first power whose
   max row sum is at most 1/2, [None] when none up to j = 16 is. *)
let oracle_decays a =
  let halves m =
    Array.for_all
      (fun row -> Array.fold_left (fun s x -> s +. Float.abs x) 0. row <= 0.5)
      (Matrix.to_arrays m)
  in
  let rec square m j =
    if halves m then Some j else if j < 16 then square (Matrix.mul m m) (j + 1) else None
  in
  square a 0

(* Every loop the design flow judges: the nominal LQG loop and the four
   guardband corners of every gain set of the six cold design keys (the
   exynos big/little clusters and full-system 4x2 controller, and the
   three pixel8pro clusters).  Each decays with at least three
   squarings to spare. *)
let design_loops_decay () =
  let module D = Spectr.Design_flow in
  let pixel i = D.cluster_subsystem Spectr_platform.Platform_desc.pixel8pro i in
  let fs_goal = [ { D.label = "power"; q_y = [| 0.1; 30. |] } ] in
  let loops = ref 0 in
  List.iter
    (fun (subsystem, goals) ->
      match D.design_gains_for subsystem goals with
      | Error msg -> Alcotest.failf "%s: %s" (D.subsystem_name subsystem) msg
      | Ok gains ->
          List.iter
            (fun (g : Lqg.gains) ->
              List.iter
                (fun plant ->
                  let a = Spectr_sysid.Guardband.closed_loop_matrix ~gains:g ~plant in
                  incr loops;
                  let name =
                    Printf.sprintf "%s/%s loop %d" (D.subsystem_name subsystem)
                      g.Lqg.label !loops
                  in
                  check_bool name true (Statespace.decays a);
                  match oracle_decays a with
                  | Some j -> check_bool (name ^ ": j <= 13") true (j <= 13)
                  | None -> Alcotest.failf "%s: oracle rejects" name)
                (g.Lqg.model :: Spectr_sysid.Guardband.perturbed_models g.Lqg.model))
            gains)
    [
      (D.Big_2x2, Spectr.Mm.goals);
      (D.Little_2x2, Spectr.Mm.goals);
      (D.Fs_4x2, fs_goal);
      (pixel 0, Spectr.Mm.goals);
      (pixel 1, Spectr.Mm.goals);
      (pixel 2, Spectr.Mm.goals);
    ];
  (* two goals on five keys, one on the 4x2: a nominal loop and four
     corners each *)
  check_int "loops checked" 55 !loops

let test_ss_decays_matches_oracle () =
  let g = Prng.create 13L in
  let decaying = ref 0 and not_decaying = ref 0 in
  for _ = 1 to 100 do
    let n = 1 + Prng.int g 8 in
    (* a random matrix's spectral radius is about sqrt(n/3) times its
       entry scale: spread the draws across the unit circle *)
    let scale = Prng.uniform g ~lo:0.6 ~hi:1.4 /. sqrt (float_of_int n /. 3.) in
    let a =
      Matrix.init ~rows:n ~cols:n (fun _ _ ->
          if Prng.int g 4 = 0 then 0. else scale *. Prng.uniform g ~lo:(-1.) ~hi:1.)
    in
    let expected = oracle_decays a <> None in
    check_bool "decays = fresh-product oracle" expected (Statespace.decays a);
    incr (if expected then decaying else not_decaying)
  done;
  check_bool "both verdicts drawn" true (!decaying > 10 && !not_decaying > 10);
  design_loops_decay ()

let test_ss_operation_count () =
  (* n=2, m=2, p=2: 4 + 4 + 4 + 4 = 16 *)
  check_int "ops 2x2" 16 (Statespace.operation_count model_2x2);
  check_int "ops 1x1" 4 (Statespace.operation_count model_1x1)

(* ------------------------------------------------------------------ *)
(* LQR                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lqr_scalar () =
  (* a=0.5,b=1,q=1,r=1: p solves DARE, k = pa*b/(r+pb²). *)
  let a = Matrix.of_list [ [ 0.5 ] ]
  and b = Matrix.of_list [ [ 1. ] ]
  and q = Matrix.identity 1
  and r = Matrix.identity 1 in
  match Lqr.design ~a ~b ~q ~r with
  | Error e -> Alcotest.failf "LQR: %a" Lqr.pp_error e
  | Ok { k; p } ->
      let pv = Matrix.to_scalar p and kv = Matrix.to_scalar k in
      check_float_loose "gain formula" (0.5 *. pv /. (1. +. pv)) kv;
      (* closed loop |a - bk| < 1 *)
      check_bool "stabilizing" true (abs_float (0.5 -. kv) < 1.)

let test_lqr_stabilizes_unstable () =
  let a = Matrix.of_list [ [ 1.5 ] ]
  and b = Matrix.of_list [ [ 1. ] ]
  and q = Matrix.identity 1
  and r = Matrix.identity 1 in
  match Lqr.design ~a ~b ~q ~r with
  | Error e -> Alcotest.failf "LQR: %a" Lqr.pp_error e
  | Ok { k; _ } ->
      let acl = Lqr.closed_loop_matrix ~a ~b ~k in
      check_bool "closed loop stable" true (Matrix.max_abs acl < 1.)

let test_lqr_bad_weights () =
  let a = Matrix.identity 2 and b = Matrix.identity 2 in
  (match Lqr.design ~a ~b ~q:(Matrix.identity 3) ~r:(Matrix.identity 2) with
  | Error (Lqr.Bad_weights _) -> ()
  | _ -> Alcotest.fail "expected Bad_weights (Q)");
  (* R not positive definite *)
  match
    Lqr.design ~a ~b ~q:(Matrix.identity 2) ~r:(Matrix.scale 0. (Matrix.identity 2))
  with
  | Error (Lqr.Bad_weights _) -> ()
  | _ -> Alcotest.fail "expected Bad_weights (R)"

let test_lqr_higher_r_smaller_gain () =
  let a = Matrix.of_list [ [ 0.9 ] ]
  and b = Matrix.of_list [ [ 1. ] ]
  and q = Matrix.identity 1 in
  let gain r =
    match Lqr.design ~a ~b ~q ~r:(Matrix.of_list [ [ r ] ]) with
    | Ok { k; _ } -> Matrix.to_scalar k
    | Error e -> Alcotest.failf "LQR: %a" Lqr.pp_error e
  in
  check_bool "more effort cost -> gentler control" true (gain 10. < gain 0.1)

(* ------------------------------------------------------------------ *)
(* Kalman                                                              *)
(* ------------------------------------------------------------------ *)

let test_kalman_design_scalar () =
  let a = Matrix.of_list [ [ 0.9 ] ] and c = Matrix.of_list [ [ 1. ] ] in
  let qw = Matrix.of_list [ [ 0.1 ] ] and rv = Matrix.of_list [ [ 1. ] ] in
  match Kalman.design ~a ~c ~qw ~rv with
  | Error e -> Alcotest.failf "Kalman: %a" Kalman.pp_error e
  | Ok { l; sigma } ->
      let lv = Matrix.to_scalar l and sv = Matrix.to_scalar sigma in
      (* L = sigma*c/(c*sigma*c + rv) in scalar form *)
      check_float_loose "gain formula" (sv /. (sv +. 1.)) lv;
      check_bool "gain in (0,1)" true (lv > 0. && lv < 1.)

let test_kalman_correct_moves_toward_measurement () =
  let l = Matrix.of_list [ [ 0.5 ] ] and c = Matrix.of_list [ [ 1. ] ] in
  let xhat = Matrix.of_list [ [ 0. ] ] and y = Matrix.of_list [ [ 2. ] ] in
  let x' = Kalman.correct ~l ~c ~xhat ~y in
  check_float "halfway" 1. (Matrix.to_scalar x')

let test_kalman_noisy_estimation () =
  (* Estimate the state of a scalar system from noisy measurements and
     check the error variance beats the raw measurement noise. *)
  let a = Matrix.of_list [ [ 0.95 ] ] and c = Matrix.of_list [ [ 1. ] ] in
  let qw = Matrix.of_list [ [ 0.01 ] ] and rv = Matrix.of_list [ [ 0.25 ] ] in
  match Kalman.design ~a ~c ~qw ~rv with
  | Error e -> Alcotest.failf "Kalman: %a" Kalman.pp_error e
  | Ok { l; _ } ->
      let g = Prng.create 123L in
      let x = ref 1. and xhat = ref (Matrix.of_list [ [ 0. ] ]) in
      let errs = ref [] and raw_errs = ref [] in
      for _ = 1 to 500 do
        let y = !x +. Prng.gaussian g ~mu:0. ~sigma:0.5 in
        let xf =
          Kalman.correct ~l ~c ~xhat:!xhat ~y:(Matrix.of_list [ [ y ] ])
        in
        errs := (Matrix.to_scalar xf -. !x) :: !errs;
        raw_errs := (y -. !x) :: !raw_errs;
        (* time update *)
        xhat := Matrix.scale 0.95 xf;
        x := (0.95 *. !x) +. Prng.gaussian g ~mu:0. ~sigma:0.1
      done;
      let var l = Stats.variance (Array.of_list l) in
      check_bool "filter beats raw measurement" true
        (var !errs < var !raw_errs)

(* ------------------------------------------------------------------ *)
(* LQG design                                                          *)
(* ------------------------------------------------------------------ *)

let design_or_fail ?q_integrator ~label ~model ~q_y ~r_u () =
  match Lqg.design ?q_integrator ~label ~model ~q_y ~r_u () with
  | Ok g -> g
  | Error e -> Alcotest.failf "Lqg.design: %a" Lqg.pp_error e

let test_lqg_design_dims () =
  let g =
    design_or_fail ~label:"qos" ~model:model_2x2 ~q_y:[| 30.; 1. |]
      ~r_u:[| 1.; 2. |] ()
  in
  check_int "kx shape" 2 (Matrix.rows g.Lqg.kx);
  check_int "kx cols" 2 (Matrix.cols g.Lqg.kx);
  check_int "kz cols" 2 (Matrix.cols g.Lqg.kz);
  check_int "l rows" 2 (Matrix.rows g.Lqg.l)

let test_lqg_rejects_feedthrough () =
  let model =
    Statespace.create
      ~a:(Matrix.of_list [ [ 0.5 ] ])
      ~b:(Matrix.of_list [ [ 1. ] ])
      ~c:(Matrix.of_list [ [ 1. ] ])
      ~d:(Matrix.of_list [ [ 0.3 ] ])
      ()
  in
  match Lqg.design ~label:"x" ~model ~q_y:[| 1. |] ~r_u:[| 1. |] () with
  | Error Lqg.Feedthrough_unsupported -> ()
  | _ -> Alcotest.fail "expected Feedthrough_unsupported"

let test_lqg_bad_weights () =
  (match Lqg.design ~label:"x" ~model:model_2x2 ~q_y:[| 1. |] ~r_u:[| 1.; 1. |] () with
  | Error (Lqg.Bad_weights _) -> ()
  | _ -> Alcotest.fail "q_y length");
  match
    Lqg.design ~label:"x" ~model:model_2x2 ~q_y:[| 1.; 1. |] ~r_u:[| 1.; 0. |] ()
  with
  | Error (Lqg.Bad_weights _) -> ()
  | _ -> Alcotest.fail "r_u positivity"

let test_lqg_closed_loop_stable () =
  let g =
    design_or_fail ~label:"qos" ~model:model_2x2 ~q_y:[| 30.; 1. |]
      ~r_u:[| 1.; 2. |] ()
  in
  check_bool "nominal LQG loop decays" true
    (Statespace.decays
       (Spectr_sysid.Guardband.closed_loop_matrix ~gains:g ~plant:g.Lqg.model))

(* ------------------------------------------------------------------ *)
(* Mimo runtime: closed-loop tracking                                  *)
(* ------------------------------------------------------------------ *)

(* Physical plant matching model_2x2 but with channel offsets/scales, so
   the controller must normalize correctly. *)
let simulate_closed_loop ~ctrl ~steps ~disturbance =
  let x = ref (Matrix.zeros ~rows:2 ~cols:1) in
  let y_hist = Array.make steps [| 0.; 0. |] in
  let in_ch i = [| 1.0; 2.0 |].(i) in
  ignore in_ch;
  for t = 0 to steps - 1 do
    (* physical output = normalized output * scale + offset *)
    let y_norm = Matrix.mul (Matrix.of_list [ [ 1.; 0. ]; [ 0.; 1. ] ]) !x in
    let y_phys =
      [|
        (Matrix.get y_norm 0 0 *. 10.) +. 50. +. disturbance t 0;
        (Matrix.get y_norm 1 0 *. 2.) +. 4. +. disturbance t 1;
      |]
    in
    y_hist.(t) <- y_phys;
    let u_phys = Mimo.step ctrl ~measured:y_phys in
    let u_norm =
      Matrix.col_vector
        [| (u_phys.(0) -. 1.0) /. 0.5; (u_phys.(1) -. 2.0) /. 1.0 |]
    in
    let x', _ = Statespace.step model_2x2 ~x:!x ~u:u_norm in
    x := x'
  done;
  y_hist

let make_ctrl ?(refs = [| 55.; 4.5 |]) () =
  let qos =
    design_or_fail ~label:"qos" ~model:model_2x2 ~q_y:[| 30.; 1. |]
      ~r_u:[| 1.; 2. |] ()
  in
  let power =
    design_or_fail ~label:"power" ~model:model_2x2 ~q_y:[| 1.; 30. |]
      ~r_u:[| 1.; 2. |] ()
  in
  Mimo.create ~gains:[ qos; power ] ~initial:"qos"
    ~inputs:
      [|
        Mimo.channel ~offset:1.0 ~scale:0.5 ~min:0.2 ~max:2.0 "freq";
        Mimo.channel ~offset:2.0 ~scale:1.0 ~min:0.0 ~max:4.0 "cores";
      |]
    ~outputs:
      [|
        Mimo.channel ~offset:50. ~scale:10. "fps";
        Mimo.channel ~offset:4. ~scale:2. "power";
      |]
    ~refs ()

let test_mimo_tracks_references () =
  let ctrl = make_ctrl () in
  let y = simulate_closed_loop ~ctrl ~steps:300 ~disturbance:(fun _ _ -> 0.) in
  let tail_fps = Array.map (fun v -> v.(0)) (Array.sub y 250 50) in
  let tail_pow = Array.map (fun v -> v.(1)) (Array.sub y 250 50) in
  check_bool "fps tracks 55" true (abs_float (Stats.mean tail_fps -. 55.) < 1.);
  check_bool "power tracks 4.5" true
    (abs_float (Stats.mean tail_pow -. 4.5) < 0.2)

let test_mimo_rejects_step_disturbance () =
  let ctrl = make_ctrl () in
  let disturbance t i = if t >= 150 && i = 0 then -5. else 0. in
  let y = simulate_closed_loop ~ctrl ~steps:400 ~disturbance in
  let tail_fps = Array.map (fun v -> v.(0)) (Array.sub y 350 50) in
  check_bool "integral action rejects disturbance" true
    (abs_float (Stats.mean tail_fps -. 55.) < 1.)

(* The last actuator command, read off the controller's saved state. *)
let last_command ctrl =
  let s = Mimo.saved ctrl in
  if s.Mimo.last_valid then Some s.Mimo.last else None

let test_mimo_saturation_respected () =
  (* Unreachable reference: commands must stay clamped. *)
  let ctrl = make_ctrl ~refs:[| 1000.; 4.5 |] () in
  let _ = simulate_closed_loop ~ctrl ~steps:100 ~disturbance:(fun _ _ -> 0.) in
  match last_command ctrl with
  | None -> Alcotest.fail "commands issued"
  | Some u ->
      check_bool "freq at max" true (u.(0) <= 2.0 +. 1e-9);
      check_bool "cores in range" true (u.(1) >= 0.0 && u.(1) <= 4.0)

let test_mimo_gain_switching () =
  let ctrl = make_ctrl () in
  check_bool "initial" true ((Mimo.saved ctrl).Mimo.active.Lqg.label = "qos");
  Mimo.switch_gains ctrl "power";
  check_bool "switched" true ((Mimo.saved ctrl).Mimo.active.Lqg.label = "power");
  Alcotest.check_raises "unknown"
    (Invalid_argument "Mimo.switch_gains: unknown label \"nope\"") (fun () ->
      Mimo.switch_gains ctrl "nope");
  check_int "labels" 2 (List.length (Mimo.available_gains ctrl))

let test_mimo_reference_update () =
  let ctrl = make_ctrl () in
  Mimo.set_reference ctrl ~index:1 3.0;
  check_float "updated" 3.0 (Mimo.reference ctrl ~index:1);
  let y = simulate_closed_loop ~ctrl ~steps:300 ~disturbance:(fun _ _ -> 0.) in
  let tail_pow = Array.map (fun v -> v.(1)) (Array.sub y 250 50) in
  check_bool "tracks new power ref" true
    (abs_float (Stats.mean tail_pow -. 3.0) < 0.2)

let test_mimo_reset () =
  let ctrl = make_ctrl () in
  let _ = simulate_closed_loop ~ctrl ~steps:50 ~disturbance:(fun _ _ -> 0.) in
  Mimo.reset ctrl;
  check_bool "no last command" true (last_command ctrl = None)

let test_mimo_create_validation () =
  let qos =
    design_or_fail ~label:"qos" ~model:model_2x2 ~q_y:[| 1.; 1. |]
      ~r_u:[| 1.; 1. |] ()
  in
  Alcotest.check_raises "unknown initial"
    (Invalid_argument "Mimo.create: unknown label \"zzz\"") (fun () ->
      ignore
        (Mimo.create ~gains:[ qos ] ~initial:"zzz"
           ~inputs:[| Mimo.channel "a"; Mimo.channel "b" |]
           ~outputs:[| Mimo.channel "y1"; Mimo.channel "y2" |]
           ~refs:[| 0.; 0. |] ()));
  Alcotest.check_raises "duplicate labels"
    (Invalid_argument "Mimo.create: duplicate label \"qos\"") (fun () ->
      ignore
        (Mimo.create ~gains:[ qos; qos ] ~initial:"qos"
           ~inputs:[| Mimo.channel "a"; Mimo.channel "b" |]
           ~outputs:[| Mimo.channel "y1"; Mimo.channel "y2" |]
           ~refs:[| 0.; 0. |] ()))

let test_mimo_channel_validation () =
  Alcotest.check_raises "zero scale" (Invalid_argument "Mimo.channel: zero scale")
    (fun () -> ignore (Mimo.channel ~scale:0. "x"));
  Alcotest.check_raises "min > max" (Invalid_argument "Mimo.channel: min > max")
    (fun () -> ignore (Mimo.channel ~min:2. ~max:1. "x"))

(* qcheck: for random stable scalar plants, the closed loop tracks. *)
let prop_lqg_tracks_scalar_plants =
  QCheck2.Test.make ~name:"LQG tracks random stable scalar plants" ~count:50
    QCheck2.Gen.(
      triple (float_range 0.1 0.9) (float_range 0.2 2.0) (float_range (-3.) 3.))
    (fun (a, b, r) ->
      let model =
        Statespace.create
          ~a:(Matrix.of_list [ [ a ] ])
          ~b:(Matrix.of_list [ [ b ] ])
          ~c:(Matrix.of_list [ [ 1. ] ])
          ()
      in
      match Lqg.design ~label:"g" ~model ~q_y:[| 10. |] ~r_u:[| 1. |] () with
      | Error _ -> false
      | Ok g ->
          let ctrl =
            Mimo.create ~gains:[ g ] ~initial:"g"
              ~inputs:[| Mimo.channel "u" |]
              ~outputs:[| Mimo.channel "y" |]
              ~refs:[| r |] ()
          in
          let x = ref (Matrix.zeros ~rows:1 ~cols:1) in
          let last = ref 0. in
          for _ = 1 to 400 do
            let y = Matrix.to_scalar !x in
            last := y;
            let u = Mimo.step ctrl ~measured:[| y |] in
            let x', _ =
              Statespace.step model ~x:!x ~u:(Matrix.col_vector [| u.(0) |])
            in
            x := x'
          done;
          abs_float (!last -. r) < 0.05 *. (1. +. abs_float r))

let prop_mimo_never_nan =
  (* Whatever garbage the sensors report (within floating-point range),
     the controller's commands stay finite and saturated. *)
  QCheck2.Test.make ~name:"Mimo commands always finite and saturated" ~count:100
    QCheck2.Gen.(
      list_size (return 50)
        (pair (float_range (-1e6) 1e6) (float_range (-1e6) 1e6)))
    (fun readings ->
      let ctrl = make_ctrl () in
      List.for_all
        (fun (a, b) ->
          let u = Mimo.step ctrl ~measured:[| a; b |] in
          Float.is_finite u.(0) && Float.is_finite u.(1)
          && u.(0) >= 0.2 && u.(0) <= 2.0
          && u.(1) >= 0.0 && u.(1) <= 4.0)
        readings)

let test_mimo_switch_gains_bumpless () =
  (* After a long run, a gain switch must not discontinuously slam the
     command: the first post-switch command stays within the actuator
     range travelled so far plus a small margin. *)
  let ctrl = make_ctrl () in
  let y = simulate_closed_loop ~ctrl ~steps:200 ~disturbance:(fun _ _ -> 0.) in
  ignore y;
  let before =
    match last_command ctrl with Some u -> u | None -> assert false
  in
  Mimo.switch_gains ctrl "power";
  let after = Mimo.step ctrl ~measured:[| 55.; 4.5 |] in
  check_bool "no slam on freq" true (abs_float (after.(0) -. before.(0)) < 0.6);
  check_bool "no slam on cores" true (abs_float (after.(1) -. before.(1)) < 1.5)

(* ------------------------------------------------------------------ *)
(* PID                                                                 *)
(* ------------------------------------------------------------------ *)

(* One period through the loop's flat [io] record. *)
let pid_step pid ~measured =
  let io = Pid.io pid in
  io.Pid.measured <- measured;
  Pid.update pid;
  io.Pid.command

let test_pid_converges_first_order () =
  (* Plant: y+ = 0.9 y + 0.1 u.  PI controller should drive y -> 10. *)
  let cfg = Pid.config ~kp:2.0 ~ki:2.0 ~kd:0.0 ~dt:0.1 () in
  let pid = Pid.create cfg ~reference:10. in
  let y = ref 0. in
  for _ = 1 to 500 do
    let u = pid_step pid ~measured:!y in
    y := (0.9 *. !y) +. (0.1 *. u)
  done;
  check_bool "converged" true (abs_float (!y -. 10.) < 0.1)

let test_pid_saturation_and_antiwindup () =
  let cfg = Pid.config ~u_min:(-1.) ~u_max:1. ~kp:10. ~ki:10. ~kd:0. ~dt:0.1 () in
  let pid = Pid.create cfg ~reference:100. in
  let u = pid_step pid ~measured:0. in
  check_float "clamped" 1. u;
  (* After many saturated steps, dropping the reference must react fast
     (the integrator did not wind up). *)
  for _ = 1 to 100 do
    ignore (pid_step pid ~measured:0.)
  done;
  (Pid.io pid).Pid.reference <- -100.;
  let u = pid_step pid ~measured:0. in
  check_float "reacts immediately" (-1.) u

let test_pid_config_validation () =
  Alcotest.check_raises "dt" (Invalid_argument "Pid.config: dt <= 0") (fun () ->
      ignore (Pid.config ~kp:1. ~ki:0. ~kd:0. ~dt:0. ()));
  Alcotest.check_raises "bounds" (Invalid_argument "Pid.config: u_min > u_max")
    (fun () ->
      ignore (Pid.config ~u_min:1. ~u_max:0. ~kp:1. ~ki:0. ~kd:0. ~dt:1. ()))

let test_pid_reset () =
  let cfg = Pid.config ~kp:0. ~ki:1. ~kd:0. ~dt:1. () in
  let pid = Pid.create cfg ~reference:1. in
  ignore (pid_step pid ~measured:0.);
  ignore (pid_step pid ~measured:0.);
  Pid.reset pid;
  let u = pid_step pid ~measured:0. in
  check_float "integral cleared" 1. u

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "spectr_control"
    [
      ( "statespace",
        [
          Alcotest.test_case "dims" `Quick test_ss_dims;
          Alcotest.test_case "create invalid" `Quick test_ss_create_invalid;
          Alcotest.test_case "step" `Quick test_ss_step;
          Alcotest.test_case "impulse response" `Quick test_ss_simulate_impulse;
          Alcotest.test_case "dc gain" `Quick test_ss_dc_gain;
          Alcotest.test_case "stability" `Quick test_ss_stability;
          Alcotest.test_case "decays = fresh-product oracle" `Quick
            test_ss_decays_matches_oracle;
          Alcotest.test_case "operation count" `Quick test_ss_operation_count;
        ] );
      ( "lqr",
        [
          Alcotest.test_case "scalar" `Quick test_lqr_scalar;
          Alcotest.test_case "stabilizes unstable" `Quick
            test_lqr_stabilizes_unstable;
          Alcotest.test_case "bad weights" `Quick test_lqr_bad_weights;
          Alcotest.test_case "effort cost trades gain" `Quick
            test_lqr_higher_r_smaller_gain;
        ] );
      ( "kalman",
        [
          Alcotest.test_case "scalar design" `Quick test_kalman_design_scalar;
          Alcotest.test_case "correct step" `Quick
            test_kalman_correct_moves_toward_measurement;
          Alcotest.test_case "noisy estimation" `Quick
            test_kalman_noisy_estimation;
        ] );
      ( "lqg",
        [
          Alcotest.test_case "design dims" `Quick test_lqg_design_dims;
          Alcotest.test_case "rejects feedthrough" `Quick
            test_lqg_rejects_feedthrough;
          Alcotest.test_case "bad weights" `Quick test_lqg_bad_weights;
          Alcotest.test_case "closed loop stable" `Quick
            test_lqg_closed_loop_stable;
        ] );
      ( "mimo",
        [
          Alcotest.test_case "tracks references" `Quick
            test_mimo_tracks_references;
          Alcotest.test_case "rejects disturbance" `Quick
            test_mimo_rejects_step_disturbance;
          Alcotest.test_case "saturation" `Quick test_mimo_saturation_respected;
          Alcotest.test_case "gain switching" `Quick test_mimo_gain_switching;
          Alcotest.test_case "reference update" `Quick
            test_mimo_reference_update;
          Alcotest.test_case "reset" `Quick test_mimo_reset;
          Alcotest.test_case "create validation" `Quick
            test_mimo_create_validation;
          Alcotest.test_case "channel validation" `Quick
            test_mimo_channel_validation;
          qc prop_lqg_tracks_scalar_plants;
          qc prop_mimo_never_nan;
          Alcotest.test_case "bumpless gain switch" `Quick
            test_mimo_switch_gains_bumpless;
        ] );
      ( "pid",
        [
          Alcotest.test_case "converges" `Quick test_pid_converges_first_order;
          Alcotest.test_case "saturation + anti-windup" `Quick
            test_pid_saturation_and_antiwindup;
          Alcotest.test_case "config validation" `Quick
            test_pid_config_validation;
          Alcotest.test_case "reset" `Quick test_pid_reset;
        ] );
    ]
