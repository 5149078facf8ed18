(* Every metric the benchmark reports: name, unit, direction and — for
   end-to-end metrics — the regression bound.  BENCHMARK.json at the
   repository root lists the same table ([perf.exe --benchmark-json]
   prints it); the smoke run checks the two agree. *)

(* Seconds one run measures (BENCHMARK.json [run_seconds]). *)
let run_seconds = 10

type better = Higher | Lower

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;  (** End-to-end metrics only. *)
}

let e2e name unit better bound = { name; unit; better; bound = Some bound }
let layer name unit better = { name; unit; better; bound = None }

let workloads =
  [
    ( "scenario",
      "per-chip control loop on one domain: 9 manager/platform cells x 8 QoS \
       apps, in-cache working set, no synthesis after set-up" );
    ( "fleet",
      "Fleet.run, 512 exynos/pixel8pro nodes on 2 domains: node state far \
       above L2, per-epoch shard barrier, checkpoint/placer/coordinator layers" );
    ( "chaos",
      "Soak.run of 600 short faulted cells on 2 domains: arena resets, \
       invariant monitors, kill drills, warm synthesis-cache re-synthesis" );
    ( "synth",
      "design-time synthesis with the cache cleared: sharded modular k=11, \
       monolithic k=9 and 90 description-driven supervisors" );
  ]

(* Only metrics that repeat within their bound between two sets of runs
   of the same code on the reference host (README.md, "Measurements").
   Throughput does not: other tenants slow the host by up to 1.8x for
   minutes at a time, so it is a per-layer row below.  [setup_s] carries
   the largest bound. *)
let end_to_end = [ e2e "setup_s" "s" Lower 0.25; e2e "peak_rss_mb" "MB" Lower 0.10 ]

(* The manager variants of the scenario grid, in grid order. *)
let variants =
  [
    "spectr-r"; "spectr-g"; "spectr"; "mm-pow"; "mm-perf"; "siso"; "fs";
    "spectr-3c"; "spectr-r-3c";
  ]

let chaos_variants =
  [ "spectr-r"; "spectr-g"; "spectr"; "mm-pow"; "mm-perf"; "siso"; "fs" ]

let synth_sizes = [ 2; 3; 4; 6; 8; 12; 16 ]

let per_layer =
  [
    (* the workload's own work units per second, tracing off *)
    layer "throughput_per_s" "1/s" Higher;
    (* platform half of the scenario loop *)
    layer "scenario.tick.ns" "ns" Lower;
    layer "scenario.platform_self.ns" "ns" Lower;
    layer "scenario.start.us" "us" Lower;
    layer "soc.step_into.ns" "ns" Lower;
    layer "soc.step_into.bytes" "B" Lower;
    layer "heartbeats.ns" "ns" Lower;
    layer "trace.add.ns" "ns" Lower;
    (* managers *)
    layer "control_step_us_p50" "us" Lower;
    layer "control_step_us_p99" "us" Lower;
  ]
  @ List.map (fun v -> layer ("manager.step.ns." ^ v) "ns" Lower) variants
  @ List.map (fun v -> layer ("manager.step.bytes." ^ v) "B" Lower) variants
  @ List.map (fun v -> layer ("manager.residual.ns." ^ v) "ns" Lower) variants
  @ [
      (* leaf controllers, timed on shadow instances *)
      layer "supervisor.step.ns" "ns" Lower;
      layer "mimo.step_into.ns" "ns" Lower;
      layer "guarded.filter.ns" "ns" Lower;
      layer "fdir.observe.ns" "ns" Lower;
      layer "supervisor.steps" "count" Lower;
      layer "supervisor.events_fired" "count" Lower;
      (* checkpointing *)
      layer "manager.persist.snapshot.us" "us" Lower;
      layer "manager.persist.restore.us" "us" Lower;
    ]
  @ List.map (fun v -> layer ("engine.run_cell.ms." ^ v) "ms" Lower) chaos_variants
  @ [
      (* chaos *)
      layer "engine.run_cell.ms.p95" "ms" Lower;
      layer "engine.monitor.ns_per_tick" "ns" Lower;
      layer "arena.checkout.us" "us" Lower;
      layer "campaign.cell_of_spec.us" "us" Lower;
      layer "soak.findings_rerun.s" "s" Lower;
      layer "soak.busy_share" "ratio" Higher;
      layer "chaos.probe_gap_pct" "%" Lower;
      layer "guard.interventions" "count" Lower;
      layer "fdir.permanent_verdicts" "count" Lower;
      (* supervisor hot-swap *)
      layer "swap.step.ms.cold" "ms" Lower;
      layer "resynth_warm_ms_p50" "ms" Lower;
      layer "resynth_warm_ms_p95" "ms" Lower;
      layer "synth_cache.hits" "count" Higher;
      layer "synth_cache.misses" "count" Lower;
      layer "synth_cache.hit.us" "us" Lower;
      (* fleet *)
      layer "node.create.us" "us" Lower;
      layer "node.warm_up.us" "us" Lower;
      layer "node.tick.ns" "ns" Lower;
      layer "node.tick.bytes" "B" Lower;
      layer "node.checkpoint.ns" "ns" Lower;
      layer "node.checkpoint.bytes" "B" Lower;
      layer "node.report.ns" "ns" Lower;
      layer "placer.assign.us" "us" Lower;
      layer "coordinator.rebudget.us" "us" Lower;
      layer "fleet.rebudget_moves" "count" Lower;
      layer "node.restart.ms" "ms" Lower;
      layer "fleet.shard_imbalance" "ratio" Lower;
      layer "fleet.epoch.ms.p50" "ms" Lower;
      layer "fleet.epoch.ms.p90" "ms" Lower;
      layer "fleet.probe_gap_pct" "%" Lower;
      (* synthesis *)
      layer "synthesis.supcon_modular.s.wide.jobs1" "s" Lower;
      layer "synthesis.supcon_modular.s.wide.jobs2" "s" Lower;
      layer "synth.par_speedup.wide" "ratio" Higher;
      layer "synthesis.bytes.wide" "B" Lower;
      layer "verify.nonblocking.s.wide" "s" Lower;
      layer "compose.all.s.mono" "s" Lower;
      layer "synthesis.supcon.s.mono" "s" Lower;
      layer "verify.controllable.s.mono" "s" Lower;
      layer "spec.of_platform.us" "us" Lower;
      layer "plant_model.of_platform.us" "us" Lower;
    ]
  @ List.map
      (fun k -> layer (Printf.sprintf "supervisor.synthesize.ms.k%d" k) "ms" Lower)
      synth_sizes
  @ [
      layer "design_flow.design_gains_for.ms.cold" "ms" Lower;
      (* the traced run itself *)
      layer "gap_pct" "%" Lower;
      layer "trace_overhead_pct" "%" Lower;
    ]

let find name =
  List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)

let better_string = function Higher -> "higher" | Lower -> "lower"

(* The BENCHMARK.json description of this benchmark. *)
let benchmark_json ~run_seconds =
  let open Json in
  let metric m =
    Obj
      ([
         ("name", Str m.name);
         ("unit", Str m.unit);
         ("better", Str (better_string m.better));
       ]
      @ match m.bound with Some b -> [ ("bound", Num b) ] | None -> [])
  in
  Obj
    [
      ("command", Arr [ Str "sh"; Str "bench/perf/run.sh" ]);
      ("paths", Arr [ Str "bench/perf" ]);
      ("run_seconds", Num (float_of_int run_seconds));
      ( "workloads",
        Arr
          (List.map
             (fun (name, why) -> Obj [ ("name", Str name); ("why", Str why) ])
             workloads) );
      ("end_to_end", Arr (List.map metric end_to_end));
      ("per_layer", Arr (List.map metric per_layer));
    ]
