(* Figure 3: x264 on a quad-core cluster controlled by fixed-priority 2x2
   MIMOs.  The FPS-oriented controller holds 60 FPS and lets power float;
   the power-oriented controller holds the power reference and lets FPS
   float — neither can renegotiate when goals change, which motivates the
   supervisor.  The two controller runs are independent and fan out
   across the pool. *)

open Spectr_platform
open Spectr_control

let run_controller ~label ~q_y =
  let ident = Spectr.Design_flow.identify Spectr.Design_flow.Big_2x2 in
  let gains =
    match
      Spectr.Design_flow.design_gains ident [ { Spectr.Design_flow.label; q_y } ]
    with
    | Ok g -> g
    | Error m -> failwith m
  in
  let ctrl =
    Spectr.Design_flow.build_mimo ident ~gains ~initial:label
      ~refs:[| 60.; 5.0 |]
  in
  let soc = Soc.create ~qos:Benchmarks.x264 () in
  let steps = 200 in
  let time = Array.make steps 0. in
  let fps = Array.make steps 0. in
  let power = Array.make steps 0. in
  let big = Soc.host_cluster soc in
  for t = 0 to steps - 1 do
    let obs = Soc.step soc ~dt:0.05 in
    let big_power = (Soc.sensor_powers soc).(big) in
    time.(t) <- obs.Soc.time;
    fps.(t) <- obs.Soc.qos_rate;
    power.(t) <- big_power;
    let u = Mimo.step ctrl ~measured:[| obs.Soc.qos_rate; big_power |] in
    Spectr.Manager.apply_cluster soc big u ~at:0
  done;
  (time, fps, power)

let summarize name fps power =
  let tail a = Array.sub a 100 100 in
  Printf.printf
    "  %-22s steady FPS %6.1f (ref 60.0)   steady power %5.2f W (ref 5.0)\n"
    name
    (Spectr_linalg.Stats.mean (tail fps))
    (Spectr_linalg.Stats.mean (tail power))

let run () =
  Util.heading
    "Figure 3: fixed-priority 2x2 MIMOs on x264 (quad-core A15, refs 60 FPS / 5 W)";
  let results =
    Spectr_exec.Parmap.map
      (fun (label, q_y) -> run_controller ~label ~q_y)
      [ ("qos", Spectr.Mm.qos_weights); ("power", Spectr.Mm.power_weights) ]
  in
  match results with
  | [ (t_a, fps_a, pow_a); (_, fps_b, pow_b) ] ->
      Util.subheading "(a) FPS-oriented controller (Q ratio 30:1)";
      Util.print_series ~columns:[ "fps"; "power_W" ] ~time:t_a [ fps_a; pow_a ];
      Util.subheading "(b) power-oriented controller (Q ratio 1:30)";
      Util.print_series ~columns:[ "fps"; "power_W" ] ~time:t_a [ fps_b; pow_b ];
      Util.subheading "summary (paper: each controller tracks only its priority)";
      summarize "FPS-oriented" fps_a pow_a;
      summarize "power-oriented" fps_b pow_b
  | _ -> assert false
