(* Workload [scenario]: the paper's per-chip control loop on one domain.

   A round drives every (manager, platform) cell of the grid — the seven
   chaos-campaign variants on exynos5422 plus SPECTR and SPECTR+R on the
   3-cluster pixel8pro — through the three-phase scenario of §5 on each
   QoS application, phases stretched so the tick loop dominates the
   per-run start.  Managers are built fresh before each run (outside the
   timed part), so every round replays the same traces.  Soc,
   Heartbeats, Trace and the manager step do nearly all the work; no
   synthesis or coordinator runs after set-up. *)

open Spectr_platform
module S = Spectr
module C = Spectr_chaos.Campaign

type cell = {
  label : string;  (** Metric suffix, {!Catalog.variants} order. *)
  platform : Platform_desc.t;
  make : unit -> S.Manager.t;
  shadow : Shadow.kind;
}

let campaign v () =
  let m, _, _, _ = C.make_manager v in
  m

let cells =
  let exynos = Platform_desc.exynos5422 and pixel = Platform_desc.pixel8pro in
  let spectr ~guard ~fdir = Shadow.Spectr_family { guard; fdir } in
  [
    { label = "spectr-r"; platform = exynos; make = campaign C.Spectr_r;
      shadow = spectr ~guard:true ~fdir:true };
    { label = "spectr-g"; platform = exynos; make = campaign C.Spectr_g;
      shadow = spectr ~guard:true ~fdir:false };
    { label = "spectr"; platform = exynos; make = campaign C.Spectr;
      shadow = spectr ~guard:false ~fdir:false };
    { label = "mm-pow"; platform = exynos; make = campaign C.Mm_pow;
      shadow = Shadow.Mm "power" };
    { label = "mm-perf"; platform = exynos; make = campaign C.Mm_perf;
      shadow = Shadow.Mm "qos" };
    { label = "siso"; platform = exynos; make = campaign C.Siso;
      shadow = Shadow.Siso };
    { label = "fs"; platform = exynos; make = campaign C.Fs; shadow = Shadow.Fs };
    { label = "spectr-3c"; platform = pixel;
      make = (fun () -> fst (S.Spectr_manager.make ~platform:pixel ()));
      shadow = spectr ~guard:false ~fdir:false };
    { label = "spectr-r-3c"; platform = pixel;
      make = (fun () -> fst (S.Spectr_manager.make_reconfigurable ~platform:pixel ()));
      shadow = spectr ~guard:true ~fdir:true };
  ]

(* The SPECTR/exynos5422/x264 seed-42 trace of the default scenario,
   pinned since the tick-kernel refactor. *)
let pinned_digest = "ab3b5b5ef6ec4920c18d5f0a4117cbc1"

let pin_holds () =
  let mgr, _ = S.Spectr_manager.make () in
  let tr = S.Scenario.run ~manager:mgr (S.Scenario.default_config ~seed:42L Benchmarks.x264) in
  Digest.to_hex (Digest.string (Trace.to_csv tr)) = pinned_digest

type run = { cell : cell; config : S.Scenario.config }

let stretch factor (cfg : S.Scenario.config) =
  {
    cfg with
    S.Scenario.phases =
      List.map
        (fun p -> { p with S.Scenario.duration_s = p.S.Scenario.duration_s *. factor })
        cfg.S.Scenario.phases;
  }

let runs ~smoke ~seed =
  let apps =
    if smoke then [ Benchmarks.x264; Benchmarks.kmeans ] else Benchmarks.all_qos
  in
  let factor = if smoke then 0.2 else 10. in
  List.concat_map
    (fun cell ->
      List.map
        (fun app -> (cell, app))
        apps)
    cells
  |> List.mapi (fun i (cell, app) ->
         {
           cell;
           config =
             stretch factor
               (S.Scenario.default_config ~seed:(Wl.mix_seed seed i)
                  ~platform:cell.platform app);
         })
  |> Array.of_list

(* Order-sensitive hash of every trace value, and whether all are
   finite.  Cheaper than the CSV digest, equally exact. *)
let fingerprint tr =
  let h = ref 0xcbf29ce484222325L and finite = ref true in
  for c = 0 to Trace.width tr - 1 do
    let col = Trace.column_ix tr c in
    for i = 0 to Array.length col - 1 do
      let v = col.(i) in
      if not (Float.is_finite v) then finite := false;
      h := Int64.mul (Int64.logxor !h (Int64.bits_of_float v)) 0x100000001b3L
    done
  done;
  (!h, !finite)

let ticks_of runs =
  Array.fold_left (fun a r -> a + S.Scenario.total_ticks r.config) 0 runs

(* One round: each run gets a fresh manager (untimed), then its
   start-to-finish scenario is timed.  Returns every run's trace
   fingerprint and the timed seconds. *)
let round_with ~drive runs =
  let seconds = ref 0. in
  let prints =
    Array.map
      (fun r ->
        let manager = r.cell.make () in
        let t0 = Timer.now_ns () in
        let tr = drive r manager in
        seconds := !seconds +. (float_of_int (Timer.now_ns () - t0) /. 1e9);
        fingerprint tr)
      runs
  in
  (prints, !seconds)

let plain r manager = S.Scenario.run ~manager r.config

let outputs prints =
  String.concat ","
    (Array.to_list (Array.map (fun (h, _) -> Printf.sprintf "%Lx" h) prints))

(* --- traced section ------------------------------------------------- *)

let h_start = Tracer.handle "scenario.start"
let h_tick = Tracer.handle "scenario.tick"
let h_snapshot = Tracer.handle "manager.persist.snapshot"
let h_restore = Tracer.handle "manager.persist.restore"

let step_name c = "manager.step." ^ c.label
let h_step = List.map (fun c -> (c.label, Tracer.handle ~hist:true (step_name c))) cells

(* Spans around Scenario.start, every tick and every manager step. *)
let traced_drive r manager =
  let h = List.assoc r.cell.label h_step in
  let step ~now ~qos_ref ~envelope ~obs soc =
    Tracer.enter h;
    manager.S.Manager.step ~now ~qos_ref ~envelope ~obs soc;
    Tracer.leave ()
  in
  let wrapped = { manager with S.Manager.step } in
  let runner = Tracer.span h_start (fun () -> S.Scenario.start r.config) in
  for _ = 1 to S.Scenario.total_ticks r.config do
    Tracer.enter h_tick;
    ignore (S.Scenario.tick runner ~manager:wrapped : Soc.observation option);
    Tracer.leave ()
  done;
  S.Scenario.trace runner

(* The live run untouched, every hidden layer shadowed tick by tick,
   then a checkpoint round trip on the finished manager. *)
let shadow_drive r (manager : S.Manager.t) =
  let sh = Shadow.create r.cell.shadow ~label:r.cell.label r.config in
  let runner = S.Scenario.start r.config in
  for _ = 1 to S.Scenario.total_ticks r.config do
    match S.Scenario.tick runner ~manager with
    | Some obs ->
        let phase, _ = S.Scenario.current_phase runner in
        Shadow.tick sh ~live:(S.Scenario.runner_soc runner) ~obs
          ~qos_ref:r.config.S.Scenario.qos_ref ~envelope:phase.S.Scenario.envelope
    | None -> ()
  done;
  (match manager.S.Manager.persist with
  | Some p ->
      for _ = 1 to 5 do
        let c = Tracer.span h_snapshot p.S.Manager.snapshot in
        Tracer.span h_restore (fun () -> p.S.Manager.restore c)
      done
  | None -> ());
  S.Scenario.trace runner

(* ControlPULP-style budget: each manager's step and its leaf layers as
   a share of the 50 ms control period, the supervisor as a share of its
   100 ms period. *)
let budget_table aggs =
  let pct x period = 100. *. x /. period in
  let header =
    Printf.sprintf "  %-12s %9s %9s %8s %11s %8s" "variant" "p50 us" "p99 us"
      "p99 %50" "leaves us" "lvs %50"
  in
  let rows =
    List.map
      (fun c ->
        let p50 = Wl.pct_of aggs (step_name c) 50. 1e6
        and p99 = Wl.pct_of aggs (step_name c) 99. 1e6
        and leaves = Wl.mean_of aggs ("leaves." ^ c.label) 1e6 in
        Printf.sprintf "  %-12s %9.2f %9.2f %7.4f%% %11.2f %7.4f%%" c.label p50
          p99 (pct p99 50e3) leaves (pct leaves 50e3))
      cells
  in
  let sup = Wl.mean_of aggs "supervisor.step" 1e6 in
  ("period budget (50 ms control period, 100 ms supervisor period):" :: header
   :: rows)
  @ [
      Printf.sprintf "  supervisor.step %.2f us = %.5f%% of 100 ms; mimo.step_into \
                      %.2f us, guarded.filter %.2f us, fdir.observe %.2f us per call"
        sup (pct sup 100e3)
        (Wl.mean_of aggs "mimo.step_into" 1e6)
        (Wl.mean_of aggs "guarded.filter" 1e6)
        (Wl.mean_of aggs "fdir.observe" 1e6);
    ]

let section runs =
  let (plain_prints, traced_prints, timing), spans =
    Wl.with_tracing (fun () ->
        let passes =
          Wl.time_passes
            ~plain:(fun () -> round_with ~drive:plain runs)
            ~traced:(fun () -> round_with ~drive:traced_drive runs)
        in
        (passes, Tracer.snapshot ()))
  in
  let shadow_prints, shadows =
    Wl.with_tracing (fun () ->
        let p, _ = round_with ~drive:shadow_drive runs in
        (p, Tracer.snapshot ()))
  in
  let steps, events =
    Wl.with_obs (fun () ->
        List.iter
          (fun c ->
            match Array.to_list runs |> List.find_opt (fun r -> r.cell == c) with
            | Some r -> ignore (plain r (c.make ()) : Trace.t)
            | None -> ())
          cells;
        (Wl.counter "supervisor.steps", Wl.counter "supervisor.events_fired"))
  in
  let aggs = spans @ shadows in
  let ticks =
    match Wl.agg aggs "scenario.tick" with
    | Some a -> float_of_int a.Tracer.calls
    | None -> 1.
  in
  let step_total =
    List.fold_left (fun a c -> a +. Wl.total_of aggs (step_name c)) 0. cells
  in
  let pooled = Fine_hist.create () in
  List.iter
    (fun c ->
      match Wl.agg aggs (step_name c) with
      | Some { Tracer.hist = Some h; _ } -> Fine_hist.merge_into ~dst:pooled h
      | _ -> ())
    cells;
  let per_variant f = List.map f cells in
  let metrics =
    [
      ("scenario.tick.ns", Wl.total_of aggs "scenario.tick" *. 1e9 /. ticks);
      ( "scenario.platform_self.ns",
        (Wl.total_of aggs "scenario.tick" -. step_total) *. 1e9 /. ticks );
      ("scenario.start.us", Wl.mean_of aggs "scenario.start" 1e6);
      ("soc.step_into.ns", Wl.mean_of aggs "soc.step_into" 1e9);
      ("soc.step_into.bytes", Wl.bytes_of aggs "soc.step_into");
      ("heartbeats.ns", Wl.mean_of aggs "heartbeats" 1e9);
      ("trace.add.ns", Wl.mean_of aggs "trace.add" 1e9);
      ("control_step_us_p50", Fine_hist.percentile pooled 50. /. 1e3);
      ("control_step_us_p99", Fine_hist.percentile pooled 99. /. 1e3);
    ]
    @ per_variant (fun c ->
          ("manager.step.ns." ^ c.label, Wl.mean_of aggs (step_name c) 1e9))
    @ per_variant (fun c ->
          ("manager.step.bytes." ^ c.label, Wl.bytes_of aggs (step_name c)))
    @ per_variant (fun c ->
          ( "manager.residual.ns." ^ c.label,
            Wl.mean_of aggs (step_name c) 1e9
            -. Wl.mean_of aggs ("leaves." ^ c.label) 1e9 ))
    @ [
        ("supervisor.step.ns", Wl.mean_of aggs "supervisor.step" 1e9);
        ("mimo.step_into.ns", Wl.mean_of aggs "mimo.step_into" 1e9);
        ("guarded.filter.ns", Wl.mean_of aggs "guarded.filter" 1e9);
        ("fdir.observe.ns", Wl.mean_of aggs "fdir.observe" 1e9);
        ("supervisor.steps", steps);
        ("supervisor.events_fired", events);
        ("manager.persist.snapshot.us", Wl.mean_of aggs "manager.persist.snapshot" 1e6);
        ("manager.persist.restore.us", Wl.mean_of aggs "manager.persist.restore" 1e6);
      ]
  in
  let differs p = p <> plain_prints in
  {
    Wl.metrics;
    throughput = float_of_int (ticks_of runs) /. timing.Wl.untraced_s;
    timing;
    t_attempted = Array.length runs;
    t_failed =
      Array.fold_left (fun a (_, finite) -> if finite then a else a + 1) 0 plain_prints;
    same_outputs = not (differs traced_prints || differs shadow_prints);
    report = budget_table aggs;
  }

let make ~smoke ~seed =
  let runs = runs ~smoke ~seed in
  let set_up () =
    Array.iter (fun r -> ignore (r.cell.make () : S.Manager.t)) runs
  in
  let prepare () =
    let reference, _ = round_with ~drive:plain runs in
    let round () =
      let prints, seconds = round_with ~drive:plain runs in
      let failed = ref 0 in
      Array.iteri
        (fun i (h, finite) ->
          if h <> fst reference.(i) || not finite then incr failed)
        prints;
      {
        Wl.units = float_of_int (ticks_of runs);
        seconds;
        attempted = Array.length runs;
        failed = !failed;
        outputs = outputs prints;
      }
    in
    (round, [ ("scenario: pinned SPECTR/x264 seed-42 trace digest", pin_holds ()) ])
  in
  let traced () = section runs in
  { Wl.name = "scenario"; rounds = 16; set_up; prepare; traced }
