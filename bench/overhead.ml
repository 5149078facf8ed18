(* §5.3 Overhead evaluation: execution time of one low-level MIMO
   controller invocation and of one supervisor invocation, measured with
   Bechamel.  The paper reports 2.5 ms per MIMO invocation (5 % of its
   50 ms period, dominated by sensor syscalls on the board) and 30 µs for
   the supervisor; what matters here is the shape: the supervisor is
   orders of magnitude cheaper than the controllers it coordinates, and
   both are negligible against the 50 ms period. *)

open Bechamel
open Toolkit
open Spectr_platform

let make_tests () =
  (* The two system identifications feeding the benchmarked controllers
     are independent; run them on the pool.  The Bechamel timing runs
     themselves stay strictly sequential — concurrent domains would
     perturb the very latencies being measured. *)
  let ident_big, ident_fs =
    match
      Spectr_exec.Parmap.map Spectr.Design_flow.identify
        [ Spectr.Design_flow.Big_2x2; Spectr.Design_flow.Fs_4x2 ]
    with
    | [ big; fs ] -> (big, fs)
    | _ -> assert false
  in
  let goals = Spectr.Mm.goals in
  let gains =
    match Spectr.Design_flow.design_gains ident_big goals with
    | Ok g -> g
    | Error m -> failwith m
  in
  let mimo_2x2 =
    Spectr.Design_flow.build_mimo ident_big ~gains ~initial:"qos"
      ~refs:[| 60.; 4.5 |]
  in
  let fs_gains =
    match
      Spectr.Design_flow.design_gains ident_fs
        [ { Spectr.Design_flow.label = "power"; q_y = [| 0.1; 30. |] } ]
    with
    | Ok g -> g
    | Error m -> failwith m
  in
  let mimo_4x2 =
    Spectr.Design_flow.build_mimo ident_fs ~gains:fs_gains ~initial:"power"
      ~refs:[| 60.; 5.0 |]
  in
  let commands =
    {
      Spectr.Supervisor.switch_gains = (fun _ -> ());
      set_power_ref = (fun _ _ -> ());
    }
  in
  let sup = Spectr.Supervisor.create ~commands ~envelope:5.0 () in
  let soc = Soc.create ~qos:Benchmarks.x264 () in
  let measured_2 = [| 60.; 3.0 |] in
  let measured_fs = [| 60.; 4.0 |] in
  Test.make_grouped ~name:"overhead"
    [
      Test.make ~name:"mimo-2x2-step"
        (Staged.stage (fun () ->
             ignore (Spectr_control.Mimo.step mimo_2x2 ~measured:measured_2)));
      Test.make ~name:"mimo-4x2-step"
        (Staged.stage (fun () ->
             ignore (Spectr_control.Mimo.step mimo_4x2 ~measured:measured_fs)));
      Test.make ~name:"supervisor-step"
        (Staged.stage (fun () ->
             Spectr.Supervisor.step sup ~qos:59. ~qos_ref:60. ~power:3.1
               ~envelope:5.0));
      Test.make ~name:"soc-step (simulator)"
        (Staged.stage (fun () -> ignore (Soc.step soc ~dt:0.05)));
    ]

let run () =
  Util.heading
    "Section 5.3: controller and supervisor overhead (Bechamel, ns/run)";
  let tests = make_tests () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan
      in
      Printf.printf "  %-28s %12.1f ns/run  (%.6f %% of the 50 ms period)\n"
        name ns
        (ns /. 50_000_000. *. 100.))
    (List.sort compare rows);
  print_endline
    "\nShape check (paper): every invocation is negligible against the\n\
     50 ms controller period (paper: 5 % per MIMO invocation including\n\
     sensor syscalls, 30 us for the supervisor; our pure-compute costs\n\
     are microseconds or less because the simulator pays no syscalls).\n\
     The 4x2 controller is measurably more expensive per step than the\n\
     2x2 — the scaling trend behind Figure 6.";
  (* With --obs, every Supervisor.step above also fed the observability
     layer: report the per-invocation latency distribution the paper's
     supervisory-invocation-cost table shows (absent without --obs so
     the default stdout stays byte-identical). *)
  if Spectr_obs.enabled () then begin
    let h = Spectr_obs.Histogram.histogram "supervisor.step_ns" in
    let p q = Spectr_obs.Histogram.percentile h q in
    Printf.printf
      "\n\
      \  supervisory invocation latency (obs, %d invocations):\n\
      \    p50 %d ns   p95 %d ns   p99 %d ns   max %d ns   mean %.1f ns\n"
      (Spectr_obs.Histogram.count h)
      (p 50.) (p 95.) (p 99.)
      (Spectr_obs.Histogram.max_ns h)
      (Spectr_obs.Histogram.mean_ns h);
    Printf.printf "  supervisory counter totals:\n";
    List.iter
      (fun (name, v) ->
        if String.length name >= 11 && String.sub name 0 11 = "supervisor." then
          Printf.printf "    %-36s %d\n" name v)
      (Spectr_obs.Counters.snapshot ())
  end
