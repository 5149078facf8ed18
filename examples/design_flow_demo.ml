(* The §6 systematic design flow, end to end.

   Walks the nine steps an HMP architect follows to build a SPECTR-style
   resource manager for a new platform:

     1. define goals            6. specify <goal, condition> priorities
     2. decompose the plant     7. design one LQG gain set per goal
     3. specify behaviour       8. robustness analysis (guardbands)
     4. synthesize + verify     9. assemble and smoke-test the system
     5. identify each subsystem

     dune exec examples/design_flow_demo.exe
*)

open Spectr_automata
open Spectr_platform
open Spectr

let step n title = Printf.printf "\nStep %d: %s\n" n title

let () =
  step 1 "define the high-level goals";
  print_endline
    "  - meet the QoS application's reference while minimizing energy\n\
    \  - keep chip power below the (dynamic) thermal envelope";

  step 2 "decompose the plant into sub-plants and model them";
  Format.printf "  QoS loop:    %a@." Automaton.pp Plant_model.qos_management;
  Format.printf "  power loop:  %a@." Automaton.pp Plant_model.power_capping;
  let plant = Plant_model.composed () in
  Format.printf "  composed:    %a@." Automaton.pp plant;

  step 3 "write the intended-behaviour specification";
  Format.printf "  three-band:  %a (forbidden: %s)@." Automaton.pp
    Spec.three_band
    (String.concat ", " (Automaton.forbidden Spec.three_band));

  step 4 "synthesize the supervisor and verify its properties";
  let supervisor, stats = Supervisor.synthesize () in
  Format.printf "  %a@." Automaton.pp supervisor;
  Format.printf "  %a@." Synthesis.pp_stats stats;
  Format.printf "  non-blocking: %b, controllable: %b@."
    (Verify.is_nonblocking supervisor)
    (Verify.is_controllable ~plant ~supervisor);

  step 5 "identify each minimal subsystem (R^2 >= 0.8 gate)";
  let big = Design_flow.identify Design_flow.Big_2x2 in
  let little = Design_flow.identify Design_flow.Little_2x2 in
  List.iter
    (fun (name, ident) ->
      Format.printf "  %-8s %a@." name Spectr_sysid.Validation.pp_report
        (Design_flow.validation ident))
    [ ("big:", big); ("little:", little) ];

  step 6 "declare the <goal, condition> pairs (Q priorities)";
  let goals = Mm.goals in
  List.iter
    (fun g ->
      Printf.printf "  %-6s Q = [%s]\n" g.Design_flow.label
        (String.concat "; "
           (Array.to_list (Array.map string_of_float g.Design_flow.q_y))))
    goals;

  step 7 "design one LQG gain set per goal";
  let design ident =
    match Design_flow.design_gains ident goals with
    | Ok gains -> gains
    | Error msg -> failwith msg
  in
  let big_gains = design big in
  let little_gains = design little in
  List.iter
    (fun g ->
      Printf.printf "  big/%s: integrator leak %.3f, stable %b\n"
        g.Spectr_control.Lqg.label g.Spectr_control.Lqg.leak
        (Spectr_control.Statespace.decays
           (Spectr_sysid.Guardband.closed_loop_matrix ~gains:g
              ~plant:g.Spectr_control.Lqg.model)))
    big_gains;

  step 8 "robust-stability analysis under the paper's guardbands";
  List.iter
    (fun g ->
      Printf.printf "  big/%s robust under 50%%/30%% guardbands: %b\n"
        g.Spectr_control.Lqg.label
        (Spectr_sysid.Guardband.robustly_stable g))
    big_gains;

  step 9 "assemble the controllers and smoke-test on the platform";
  let big_ctrl =
    Design_flow.build_mimo big ~gains:big_gains ~initial:"qos"
      ~refs:[| 60.; 4.5 |]
  in
  let little_ctrl =
    Design_flow.build_mimo little ~gains:little_gains ~initial:"qos"
      ~refs:[| 2.0; 0.3 |]
  in
  let soc = Soc.create ~qos:Benchmarks.x264 () in
  for _ = 1 to 100 do
    let obs = Soc.step soc ~dt:0.05 in
    let powers = Soc.sensor_powers soc in
    let u = Spectr_control.Mimo.step big_ctrl
        ~measured:[| obs.Soc.qos_rate; powers.(0) |] in
    Manager.apply_cluster soc 0 ~freq_ghz:u.(0) ~cores:u.(1);
    let ul = Spectr_control.Mimo.step little_ctrl
        ~measured:[| (Soc.ips_totals soc).(1) /. 1e9; powers.(1) |] in
    Manager.apply_cluster soc 1 ~freq_ghz:ul.(0) ~cores:ul.(1)
  done;
  let truth = Array.make 2 0. in
  Soc.ground_truth soc truth;
  Printf.printf "  after 5 s: QoS %.1f (ref 60.0), chip power %.2f W\n"
    truth.(1) truth.(0);
  print_endline "\nDesign flow complete."
