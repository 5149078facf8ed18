(* Workload [chaos]: [Soak.run] over a randomized fault campaign —
   SPECTR+R plus every default variant, a quarter of the cells carrying a
   permanent-fault reconfiguration drill, default kill drills and
   findings.  Many short (240-tick) faulted cells: arena resets
   (persist/restore), per-tick invariant monitors, kill drills, warm
   synthesis-cache re-synthesis and the Parmap sweep do the work.

   Simulated violations are results of the campaign, not benchmark
   failures (unguarded variants violate by design, and composed faults
   legitimately push some SPECTR+R cells to the fallback rung).  A cell
   fails when it does not reproduce: its trace digest differs from the
   one the same cell produced in the run's reference round. *)

open Spectr_platform
open Spectr_chaos
module S = Spectr

let cells ~smoke = if smoke then 48 else 600

let spec ~smoke ~seed =
  Campaign.default_spec ~seed ~cells:(cells ~smoke)
    ~variants:(Campaign.Spectr_r :: Campaign.all_variants)
    ~reconfig_prob:0.25 ()

let label v =
  String.lowercase_ascii
    (String.map (fun c -> if c = '+' then '-' else c) (Campaign.variant_name v))

let digests (r : Soak.report) =
  Array.of_list (List.map (fun o -> o.Engine.digest) r.Soak.r_outcomes)

let fingerprint (r : Soak.report) =
  Digest.to_hex
    (Digest.string (Soak.summary r ^ String.concat "," (Array.to_list (digests r))))

(* --- probes of the traced section --------------------------------------- *)

let h_cell_of_spec = Tracer.handle "campaign.cell_of_spec"
let h_sweep = Tracer.handle "chaos.sweep"
let h_run_cell = Tracer.handle ~hist:true "engine.run_cell"

let h_variant =
  List.map
    (fun v -> (v, Tracer.handle ~hist:true ("engine.run_cell." ^ label v)))
    (Campaign.Spectr_r :: Campaign.all_variants)

let h_checkout = Tracer.handle "arena.checkout"

(* A sweep like [Soak.run]'s, from public calls: cells generated one by
   one, then run through a fresh warm arena on the process pool.  Its
   traced and untraced passes must agree cell by cell; it is not pinned
   to [Soak.run]'s own results. *)
let sweep spec =
  let cells =
    List.init spec.Campaign.cells (fun i ->
        Tracer.span h_cell_of_spec (fun () -> Campaign.cell_of_spec spec i))
  in
  let arena = Arena.create () in
  Tracer.span h_sweep (fun () ->
      Spectr_exec.Parmap.map
        (fun (c : Campaign.cell) ->
          Tracer.span h_run_cell (fun () ->
              Tracer.span
                (List.assoc c.Campaign.variant h_variant)
                (fun () -> Engine.run_cell ~arena c)))
        cells)

(* What [Soak.run] spends re-running its findings: each failing cell
   again, sequentially, with the observability layer on. *)
let findings_rerun (r : Soak.report) =
  let cells = List.map (fun f -> f.Soak.f_outcome.Engine.cell) r.Soak.r_findings in
  snd
    (Timer.timed (fun () ->
         List.iter
           (fun c ->
             Wl.with_obs (fun () ->
                 ignore (Engine.run_cell c : Engine.outcome);
                 ignore (Spectr_obs.Decision_log.to_jsonl () : string)))
           cells))

(* Per-tick cost of run_cell beyond the bare scenario — invariant
   monitors, kill drills and the trace digest — on a sequential sample
   of warm-arena cells.  SPECTR+R cells are skipped: their managers are
   rebuilt inside run_cell and the difference would count construction. *)
let monitor_cost spec ~sample =
  let arena = Arena.create () in
  let cells =
    List.init spec.Campaign.cells (Campaign.cell_of_spec spec)
    |> List.filter (fun c -> c.Campaign.variant <> Campaign.Spectr_r)
    |> List.filteri (fun i _ -> i < sample)
  in
  List.iter (fun c -> ignore (Engine.run_cell ~arena c : Engine.outcome)) cells;
  let cell_s = ref 0. and bare_s = ref 0. and ticks = ref 0 in
  List.iter
    (fun c ->
      let o, t = Timer.timed (fun () -> Engine.run_cell ~arena c) in
      cell_s := !cell_s +. t;
      ticks := !ticks + o.Engine.ticks;
      let mgr, _, _, _ =
        Tracer.span h_checkout (fun () -> Arena.checkout arena c.Campaign.variant)
      in
      let config = Campaign.config_of_cell c in
      let _, t = Timer.timed (fun () -> S.Scenario.run ~manager:mgr config) in
      bare_s := !bare_s +. t)
    cells;
  (!cell_s -. !bare_s) *. 1e9 /. float_of_int (max 1 !ticks)

(* Guard and FDIR verdict counts over the first [sample] cells, run
   sequentially with the observability layer on. *)
let verdict_counts spec ~sample =
  let arena = Arena.create () in
  Wl.with_obs (fun () ->
      for i = 0 to min sample spec.Campaign.cells - 1 do
        ignore (Engine.run_cell ~arena (Campaign.cell_of_spec spec i) : Engine.outcome)
      done;
      (Wl.counter "guard.interventions", Wl.counter "fdir.permanent_verdicts"))

(* --- hot-swap probe ----------------------------------------------------- *)

(* The reconfiguration table's cells: each platform's first secondary
   cluster dies, loses its power sensor, or its DVFS rail latches, at
   t = 2 s of a 12 s x264 run under the full envelope. *)
let swap_cells ~smoke =
  let platforms =
    if smoke then [ Platform_desc.exynos5422 ]
    else [ Platform_desc.exynos5422; Platform_desc.pixel8pro; Platform_desc.k_cluster 4 ]
  in
  List.concat_map
    (fun p ->
      let host = Platform_desc.host p in
      let sec = if host = 0 then 1 else 0 in
      List.map
        (fun fault ->
          let phase name ~duration_s ~background_tasks ~faults =
            { S.Scenario.phase_name = name; duration_s; envelope = 5.0;
              background_tasks; phase_faults = faults }
          in
          ( p,
            {
              (S.Scenario.default_config ~platform:p Benchmarks.x264) with
              S.Scenario.phases =
                [
                  phase "fault" ~duration_s:8. ~background_tasks:0
                    ~faults:[ Faults.permanent fault ~start_s:2.0 ];
                  phase "disturb" ~duration_s:4. ~background_tasks:4 ~faults:[];
                ];
            } ))
        [ Faults.Cluster_dead sec; Faults.Sensor_dead (Power_cluster sec);
          Faults.Dvfs_stuck_permanent ])
    platforms

(* Runs every swap cell [reps] times with SPECTR+R.  The cache is
   cleared before a cell's first run, so its swaps re-synthesize cold;
   later runs hit the warm cache.  A sample is the wall time of the
   manager step during which the hot-swap count went up. *)
let swap_probe ~smoke =
  let reps = if smoke then 2 else 25 in
  let cold = ref [] and warm = ref [] in
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (fun (platform, config) ->
      Spectr_exec.Synth_cache.clear ();
      for rep = 1 to reps do
        let mgr, h = S.Spectr_manager.make_reconfigurable ~platform () in
        let step ~now ~qos_ref ~envelope ~obs soc =
          let before = S.Spectr_manager.Reconfig.reconfigurations h in
          let t0 = Timer.now_ns () in
          mgr.S.Manager.step ~now ~qos_ref ~envelope ~obs soc;
          let dt = float_of_int (Timer.now_ns () - t0) /. 1e6 in
          if S.Spectr_manager.Reconfig.reconfigurations h > before then
            if rep = 1 then cold := dt :: !cold else warm := dt :: !warm
        in
        ignore (S.Scenario.run ~manager:{ mgr with S.Manager.step } config : Trace.t)
      done;
      let h, m = Spectr_exec.Synth_cache.stats () in
      hits := !hits + h;
      misses := !misses + m)
    (swap_cells ~smoke);
  let arr l = Array.of_list (if l = [] then [ 0. ] else l) in
  (arr !cold, arr !warm, float_of_int !hits, float_of_int !misses)

(* Cost of one synthesis-cache hit on the case-study supervisor. *)
let cache_hit_us () =
  let plant = S.Plant_model.composed_for Platform_desc.exynos5422 in
  let spec = S.Spec.of_platform Platform_desc.exynos5422 in
  ignore (Spectr_exec.Synth_cache.supcon ~plant ~spec);
  let n = 200 in
  let _, t =
    Timer.timed (fun () ->
        for _ = 1 to n do
          ignore (Spectr_exec.Synth_cache.supcon ~plant ~spec)
        done)
  in
  t *. 1e6 /. float_of_int n

(* --- workload ---------------------------------------------------------- *)

let make ~smoke ~seed =
  let spec = spec ~smoke ~seed in
  let set_up () =
    ignore (Soak.run { spec with Campaign.cells = List.length spec.Campaign.variants }
             : Soak.report)
  in
  let prepare () =
    let reference = digests (Soak.run spec) in
    let round () =
      let r, seconds = Timer.timed (fun () -> Soak.run spec) in
      let d = digests r in
      let failed = ref 0 in
      Array.iteri (fun i x -> if x <> reference.(i) then incr failed) d;
      {
        Wl.units = float_of_int spec.Campaign.cells;
        seconds;
        attempted = spec.Campaign.cells;
        failed = !failed;
        outputs = fingerprint r;
      }
    in
    (round, [])
  in
  let traced () =
    (* The first sweep designs every variant's controllers; time the
       next two. *)
    let report = Soak.run spec in
    let soak_s =
      Float.min
        (snd (Timer.timed (fun () -> Soak.run spec)))
        (snd (Timer.timed (fun () -> Soak.run spec)))
    in
    let (plain, outcomes, timing), (monitor_ns, aggs) =
      Wl.with_tracing (fun () ->
          let pass () = Timer.timed (fun () -> sweep spec) in
          let passes = Wl.time_passes ~plain:pass ~traced:pass in
          let mon = monitor_cost spec ~sample:(if smoke then 20 else 150) in
          (passes, (mon, Tracer.snapshot ())))
    in
    let mismatches =
      List.fold_left2
        (fun n a b -> if a.Engine.digest = b.Engine.digest then n else n + 1)
        0 plain outcomes
    in
    let interventions, verdicts = verdict_counts spec ~sample:(if smoke then 48 else 300) in
    let cold, warm, hits, misses = swap_probe ~smoke in
    let cell_ms v = Wl.mean_of aggs ("engine.run_cell." ^ label v) 1e3 in
    let busy = Wl.total_of aggs "engine.run_cell" in
    {
      Wl.metrics =
        List.map
          (fun v -> ("engine.run_cell.ms." ^ label v, cell_ms v))
          (Campaign.Spectr_r :: Campaign.all_variants)
        @ [
            ("engine.run_cell.ms.p95", Wl.pct_of aggs "engine.run_cell" 95. 1e3);
            ("engine.monitor.ns_per_tick", monitor_ns);
            ("arena.checkout.us", Wl.mean_of aggs "arena.checkout" 1e6);
            ("campaign.cell_of_spec.us", Wl.mean_of aggs "campaign.cell_of_spec" 1e6);
            ("soak.findings_rerun.s", findings_rerun report);
            ( "soak.busy_share",
              busy
              /. (Wl.total_of aggs "chaos.sweep"
                 *. float_of_int (Spectr_exec.Parmap.jobs ())) );
            ("chaos.probe_gap_pct", 100. *. (timing.Wl.untraced_s -. soak_s) /. soak_s);
            ("guard.interventions", interventions);
            ("fdir.permanent_verdicts", verdicts);
            ("swap.step.ms.cold", Spectr_linalg.Stats.percentile cold 50.);
            ("resynth_warm_ms_p50", Spectr_linalg.Stats.percentile warm 50.);
            ("resynth_warm_ms_p95", Spectr_linalg.Stats.percentile warm 95.);
            ("synth_cache.hits", hits);
            ("synth_cache.misses", misses);
            ("synth_cache.hit.us", cache_hit_us ());
          ];
      throughput = float_of_int spec.Campaign.cells /. soak_s;
      timing;
      t_attempted = spec.Campaign.cells;
      t_failed = mismatches;
      same_outputs = mismatches = 0;
      report = [];
    }
  in
  { Wl.name = "chaos"; rounds = 12; set_up; prepare; traced }
