(* Ablation benches for the design choices DESIGN.md calls out:
   - gain scheduling on/off,
   - supervisor period (1x / 2x / 10x the controller period),
   - capping-band width.

   Every variant constructs its own manager inside a parallel task; each
   subheading group fans out with Parmap and prints in list order. *)

open Spectr_platform

let summarize name trace cfg =
  let metrics = Spectr.Metrics.per_phase ~trace ~config:cfg in
  Printf.printf "  %-28s" name;
  List.iter
    (fun m ->
      Printf.printf "  %s[q%+6.1f p%+6.1f]" m.Spectr.Metrics.phase_name
        m.Spectr.Metrics.qos_error_pct m.Spectr.Metrics.power_error_pct)
    metrics;
  print_newline ()

let run () =
  Util.heading "Ablations (x264 scenario; steady-state errors in %)";
  let cfg = Spectr.Scenario.default_config Benchmarks.x264 in
  let group specs =
    List.iter
      (fun (name, trace) -> summarize name trace cfg)
      (Util.run_scenarios ~config:cfg specs)
  in

  Util.subheading
    "Table 1 Row C baseline: uncoordinated SISO loops (vs SPECTR)";
  group
    [
      ("SPECTR", fun () -> fst (Spectr.Spectr_manager.make ()));
      ("SISO (3 independent PIDs)", fun () -> Spectr.Siso.make ());
    ];

  Util.subheading "gain scheduling (SPECTR with and without mode switches)";
  group
    [
      ( "with gain scheduling",
        fun () -> fst (Spectr.Spectr_manager.make ~gain_scheduling:true ()) );
      ( "without gain scheduling",
        fun () -> fst (Spectr.Spectr_manager.make ~gain_scheduling:false ()) );
    ];

  Util.subheading
    "supervisor period (divisor of the 50 ms controller period; paper uses 2)";
  group
    (List.map
       (fun divisor ->
         ( Printf.sprintf "supervisor every %d periods" divisor,
           fun () ->
             fst (Spectr.Spectr_manager.make ~supervisor_divisor:divisor ()) ))
       [ 1; 2; 10 ]);

  Util.subheading "three-band capping width (uncapping threshold)";
  let switch_counts =
    Spectr_exec.Parmap.map
      (fun uncap ->
        let commands =
          {
            Spectr.Supervisor.switch_gains = (fun _ -> ());
            set_power_ref = (fun _ _ -> ());
          }
        in
        let sup =
          Spectr.Supervisor.create ~uncapping_threshold:uncap ~commands
            ~envelope:5.0 ()
        in
        (* count mode switches under a noisy power trajectory hovering near
           the cap: a wider band should switch less *)
        let g = Spectr_linalg.Prng.create 7L in
        let switches = ref 0 in
        let last = ref (Spectr.Supervisor.gains_mode sup) in
        for _ = 1 to 300 do
          let power = 4.6 +. Spectr_linalg.Prng.gaussian g ~mu:0. ~sigma:0.5 in
          Spectr.Supervisor.step sup ~qos:60. ~qos_ref:60. ~power ~envelope:5.0;
          let mode = Spectr.Supervisor.gains_mode sup in
          if mode <> !last then begin
            incr switches;
            last := mode
          end
        done;
        (uncap, !switches))
      [ 0.95; 0.90; 0.80 ]
  in
  List.iter
    (fun (uncap, switches) ->
      Printf.printf
        "  uncapping threshold %.2f -> %d gain switches over 30 s of \
         near-cap noise\n"
        uncap switches)
    switch_counts
