(* Zero-allocation tick-kernel regression tests.

   Four properties keep the steady-state tick path honest:

   - allocation budgets: Soc.step_into, Supervisor.step and a
     Mimo.step_into + switch_gains round trip must allocate EXACTLY zero
     bytes per call once warm — a boxed float or a closure creeping
     back into the hot path fails here, attributed to the right kernel;
   - byte-identity: the hot-path rewrites (index-native supervisor,
     in-place MIMO step, buffer-reusing scenario loop, memoized gain
     design, allocation-free design kernels) must not change any trace
     or gain — scenario CSV and designed-gain digests are pinned to
     their pre-refactor values;
   - the _into variants must be bit-identical to their allocating
     counterparts (Mimo.step_into / Kalman.correct_into);
   - batch equivalence: a warm Arena checkout must behave exactly like
     a freshly built manager.

   Plus the boundary pins for the two intentionally different power
   thresholds (Metrics.power_allowance 1.02 vs the chaos invariants'
   0.05 safety guardband). *)

open Spectr_platform
open Spectr_control
open Spectr_linalg

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                  *)
(* ------------------------------------------------------------------ *)

(* Bytes per iteration after the caller has warmed [f] to steady state,
   counted in one window ({!Alloc.bytes}, which adds nothing of its
   own), so "< 1.0 B/iter" distinguishes exactly-zero from any real
   per-call allocation (the smallest possible box is 16 bytes). *)
let bytes_per_iter iters f =
  snd (Alloc.bytes (fun () -> f iters)) /. float_of_int iters

let test_soc_step_into_zero_alloc () =
  let soc = Soc.create ~qos:Benchmarks.x264 () in
  Soc.set_background_tasks soc 16;
  let obs = Soc.make_observation () in
  for _ = 1 to 500 do
    Soc.step_into soc ~dt:0.05 obs
  done;
  let per_iter =
    bytes_per_iter 100_000 (fun n ->
        for _ = 1 to n do
          Soc.step_into soc ~dt:0.05 obs
        done)
  in
  check_bool
    (Printf.sprintf "Soc.step_into steady state: %.3f B/call" per_iter)
    true (per_iter < 1.0)

let test_supervisor_step_zero_alloc () =
  let commands =
    {
      Spectr.Supervisor.switch_gains = (fun _ -> ());
      set_power_ref = (fun _ _ -> ());
    }
  in
  let sup = Spectr.Supervisor.create ~commands ~envelope:2.0 () in
  for _ = 1 to 500 do
    Spectr.Supervisor.step sup ~qos:30.0 ~qos_ref:30.0 ~power:1.5
      ~envelope:2.0
  done;
  let per_iter =
    bytes_per_iter 100_000 (fun n ->
        for _ = 1 to n do
          Spectr.Supervisor.step sup ~qos:30.0 ~qos_ref:30.0 ~power:1.5
            ~envelope:2.0
        done)
  in
  check_bool
    (Printf.sprintf "Supervisor.step steady state: %.3f B/call" per_iter)
    true (per_iter < 1.0)

(* The FDIR detector's three tick-path entry points at k clusters.  The
   evidence cycles through transient verdicts without latching — a
   7-tick exact-zero burst on the last power sensor (raised, then
   cleared), a mismatch on every other actuation readback, residuals
   above threshold on every third tick — so every counter path except
   the one-off latch runs inside the measured loop. *)
let test_fdir_zero_alloc k () =
  let fd = Spectr.Fdir.create ~k ~host:0 () in
  let live = Array.make k 2.0 and burst = Array.make k 2.0 in
  burst.(k - 1) <- 0.;
  let ips = Array.make k 1e9 in
  let round n =
    for i = 1 to n do
      let powers = if i mod 10 < 7 then burst else live in
      Spectr.Fdir.observe fd ~qos:60. ~powers ~ips;
      for c = 0 to k - 1 do
        Spectr.Fdir.note_actuation fd ~cluster:c ~ok:((i + c) mod 2 = 0);
        Spectr.Fdir.note_innovation fd ~cluster:c
          ~norm:(if (i + c) mod 3 = 0 then 25. else 0.5)
      done
    done
  in
  round 500;
  let per_iter = bytes_per_iter 20_000 round in
  check_bool "nothing latched" true (Spectr.Fdir.poll fd = []);
  check_bool
    (Printf.sprintf "Fdir.observe + note_actuation + note_innovation, k=%d: \
                     %.3f B/call" k per_iter)
    true (per_iter < 1.0)

(* The guard's per-period protocol at k clusters: noisy healthy samples
   with a rejected spike on the last power sensor every tenth period and
   a mismatched readback now and then — substitutions, but never enough
   to trip the watchdog. *)
let test_guarded_zero_alloc k () =
  let g = Spectr.Guarded.create ~clusters:k () in
  let powers = Array.make k 0. in
  (* Period stamps boxed up front: a float computed in the loop would be
     boxed at each call site and charged to the guard. *)
  let stamps = Array.init 64 (fun i -> Some (float_of_int i *. 0.05)) in
  let sink = [| 0. |] in
  let round n =
    for i = 1 to n do
      let now = Option.get stamps.(i land 63) in
      let wiggle = if i mod 2 = 0 then 0. else 0.11 in
      for c = 0 to k - 1 do
        powers.(c) <- 1.5 +. wiggle
      done;
      if i mod 10 = 0 then powers.(k - 1) <- 9.5;
      let f =
        Spectr.Guarded.filter g ~now
          ~qos:(if i mod 2 = 0 then 60. else 60.11)
          ~powers
      in
      sink.(0) <- f.Spectr.Guarded.qos;
      for c = 0 to k - 1 do
        Spectr.Guarded.note_actuation g ~now ~ok:(i mod 7 <> c)
      done
    done
  in
  round 500;
  let per_iter = bytes_per_iter 20_000 round in
  check_bool "never tripped" false (Spectr.Guarded.degraded g);
  check_bool
    (Printf.sprintf "Guarded.filter + note_actuation, k=%d: %.3f B/call" k
       per_iter)
    true (per_iter < 1.0)

(* Bytes per warm construction, counted in one window ({!Alloc.bytes})
   over 20 calls, blocks too large for the minor heap included.  Two
   calls first pay the cold design flow and synthesis; the counted calls
   then hit every process-wide memo.  A chip that boots into an
   already-designed fleet pays for its own state (SoC, controllers,
   supervisor cursor, a few closures), not for re-deriving its
   platform's identity, plant or spec: at most 64 KiB per call. *)
let test_warm_construction platform () =
  let tag = Platform_desc.name platform in
  List.iter
    (fun (name, build) ->
      build ();
      build ();
      let reps = 20 in
      let (), total =
        Alloc.bytes (fun () ->
            for _ = 1 to reps do
              build ()
            done)
      in
      let bytes = total /. float_of_int reps in
      check_bool
        (Printf.sprintf "warm %s %s: %.0f B/call (budget 65536)" name tag bytes)
        true (bytes <= 65536.))
    [
      ( "Spectr_manager.make",
        fun () -> ignore (Sys.opaque_identity (Spectr.Spectr_manager.make ~platform ())) );
      ( "Node.create",
        fun () ->
          ignore
            (Sys.opaque_identity
               (Spectr_fleet.Node.create ~platform ~id:0 ~seed:42L
                  ~workload:Benchmarks.x264 ())) );
    ]

(* Bytes of one cold Design_flow.identify: the 60 s experiment,
   one-pass standardization, the ARX fit with each regressor row
   written straight into Φ, and the realization — no validation report
   (Design_flow.validation builds that on demand).  The least of three
   fresh identifications under seeds no manager uses (identify is
   memoized per seed), counted in one window ({!Alloc.bytes}) that
   includes the blocks too large for the minor heap (Φ, the normal
   equations: 188 936 B of big-2x2's 422 848 B).  Each budget is 10 %
   above its reading.  Counted in the minor heap alone, big-2x2 read
   338.5 KB when this gate went in: a memoized report (+3.8 MB), a
   regressor per entry of Φ (+548 KB; 448 KB more in this window), a
   fresh regressor array per row (+156 KB) or a standardization that
   copies each column out and rebuilds the rows with [Array.mapi]
   (+787 KB) fails it.  large-10x10, with its ten knobs and ten sensors,
   is the input where an experiment loop that pays per knob or per
   sensor (a closure per channel, the per-core IPS copied once per
   output) shows: 2 007 032 B. *)
let test_cold_identify_bytes () =
  let bytes subsystem seed =
    let identify () = Spectr.Design_flow.identify ~seed subsystem in
    snd (Alloc.bytes (fun () -> ignore (Sys.opaque_identity (identify ()))))
  in
  List.iter
    (fun (subsystem, budget) ->
      let least =
        List.fold_left
          (fun m seed -> Float.min m (bytes subsystem seed))
          infinity [ 9001L; 9002L; 9003L ]
      in
      check_bool
        (Printf.sprintf "cold identify %s: %.0f B (budget %.0f)"
           (Spectr.Design_flow.subsystem_name subsystem)
           least budget)
        true (least <= budget))
    [
      (Spectr.Design_flow.Big_2x2, 422.9e3 *. 1.10);
      (Spectr.Design_flow.Large_10x10, 2007.1e3 *. 1.10);
    ]

(* Bytes of one big-2x2 Design_flow.validation, counted in a closed
   window ({!Alloc.bytes}).  The report is built afresh on every call,
   so this is its cold cost: 639 616 B when this gate went in, the
   budget 10 % above.  Residual autocorrelations that copy and demean
   the series once per lag read 4 146 752 B. *)
let test_validation_bytes () =
  let id = Spectr.Design_flow.identify Spectr.Design_flow.Big_2x2 in
  let _, bytes = Alloc.bytes (fun () -> Spectr.Design_flow.validation id) in
  let budget = 639.6e3 *. 1.10 in
  check_bool
    (Printf.sprintf "validation big-2x2: %.0f B (budget %.0f)" bytes budget)
    true (bytes <= budget)

(* Every fault kind in turn on exynos5422's x264 scenario: the
   transient kinds in one-second windows, then the permanent ones, the
   dead little cluster last. *)
let every_fault_kind =
  let open Faults in
  let transient =
    [
      Dropout Power;
      Stuck_at_last Qos;
      Spike_burst (Power, 4.);
      Dvfs_stuck;
      Gating_refused;
      Heartbeat_stall;
      Dropout Temp;
    ]
  in
  List.mapi
    (fun i kind ->
      let start_s = 0.5 +. float_of_int i in
      injection kind ~start_s ~stop_s:(start_s +. 1.))
    transient
  @ [
      permanent (Sensor_dead (Power_cluster 1)) ~start_s:8.;
      permanent Dvfs_stuck_permanent ~start_s:10.;
      permanent (Cluster_dead 1) ~start_s:12.;
    ]

(* The fault schedule's hooks on the tick path: [Soc.step_into] (which
   advances the schedule's active state and applies the sensor
   transforms) and both actuators, with every fault kind active in turn
   ([every_fault_kind]), must allocate nothing per tick. *)
let test_soc_faults_zero_alloc () =
  let soc = Soc.create ~qos:Benchmarks.x264 () in
  Soc.set_background_tasks soc 16;
  Soc.set_faults soc (Some (Faults.create every_fault_kind));
  let obs = Soc.make_observation () in
  let tick i =
    Soc.step_into soc ~dt:0.05 obs;
    ignore (Soc.set_frequency soc (i land 1) 1400. : int);
    Soc.set_active_cores soc (i land 1) (1 + (i land 3))
  in
  (* Each cluster's first actuation allocates a few one-off words. *)
  tick 1;
  tick 2;
  let per_tick =
    bytes_per_iter 300 (fun n ->
        for i = 1 to n do
          tick i
        done)
  in
  check_bool "every kind was active" true (Soc.time soc > 12.5);
  check_bool
    (Printf.sprintf "faulted Soc tick: %.3f B/tick" per_tick)
    true (per_tick < 1.0)

(* Bytes of one [Trace.to_csv] of a seeded 240-row, 15-column chaos
   trace (the render behind every chaos cell's digest), counted in a
   closed window ({!Alloc.bytes}): 47 272 B for 16 716 B of CSV when
   this gate went in (the buffer, sized up front, and its contents),
   the budget 10 % above.  [Printf.sprintf "%.6g"] per value into the
   same buffer reads 1 663 384 B. *)
let test_trace_csv_bytes () =
  let spec =
    Spectr_chaos.Campaign.default_spec ~seed:42 ~cells:1
      ~variants:[ Spectr_chaos.Campaign.Spectr ] ()
  in
  let cell = Spectr_chaos.Campaign.cell_of_spec spec 0 in
  let manager, _, _, _ =
    Spectr_chaos.Campaign.make_manager cell.Spectr_chaos.Campaign.variant
  in
  let trace =
    Spectr.Scenario.run ~manager (Spectr_chaos.Campaign.config_of_cell cell)
  in
  check_int "rows" 240 (Trace.length trace);
  check_int "columns" 15 (Trace.width trace);
  let csv, bytes = Alloc.bytes (fun () -> Trace.to_csv trace) in
  let budget = 47_272. *. 1.10 in
  check_bool
    (Printf.sprintf "to_csv 240 x 15: %.0f B for %d B of CSV (budget %.0f)"
       bytes (String.length csv) budget)
    true (bytes <= budget)

(* Mean bytes per Manager.step over the default seed-42 x264 scenario,
   one window ({!Alloc.bytes}) per call, one row per
   manager.step.bytes.* cell of the perf bench.  A
   ratchet toward an allocation-free closed loop: each ceiling is what
   the step read when this gate went in, so a change may lower it and
   none may raise it.  SISO's fell from 425.98 when its PID loops
   stopped boxing their integrator and previous error, and to 16.05
   (from 304.06) when they and every manager's actuation
   ({!Spectr.Manager.apply_cluster}, [command_cluster]) stopped passing
   floats across calls: the other rows fell by 96-144 B then. *)
let test_manager_step_bytes () =
  let campaign v () =
    let m, _, _, _ = Spectr_chaos.Campaign.make_manager v in
    m
  in
  let exynos = Platform_desc.exynos5422 and pixel = Platform_desc.pixel8pro in
  List.iter
    (fun (label, platform, make, ceiling) ->
      let manager = make () in
      let bytes = ref 0. and steps = ref 0 in
      let step ~now ~qos_ref ~envelope ~obs soc =
        let (), b =
          Alloc.bytes (fun () ->
              manager.Spectr.Manager.step ~now ~qos_ref ~envelope ~obs soc)
        in
        bytes := !bytes +. b;
        incr steps
      in
      let cfg = Spectr.Scenario.default_config ~seed:42L ~platform Benchmarks.x264 in
      ignore (Spectr.Scenario.run ~manager:{ manager with step } cfg : Trace.t);
      let per_step = !bytes /. float_of_int !steps in
      check_bool
        (Printf.sprintf "%s: %.2f B/step (ceiling %.2f)" label per_step ceiling)
        true (per_step <= ceiling))
    Spectr_chaos.Campaign.
      [
        ("SPECTR+R", exynos, campaign Spectr_r, 114.56);
        ("SPECTR+G", exynos, campaign Spectr_g, 66.56);
        ("SPECTR", exynos, campaign Spectr, 50.56);
        ("MM-Pow", exynos, campaign Mm_pow, 64.35);
        ("MM-Perf", exynos, campaign Mm_perf, 30.75);
        ("SISO", exynos, campaign Siso, 16.06);
        ("FS", exynos, campaign Fs, 26.70);
        ( "SPECTR-3c", pixel,
          (fun () -> fst (Spectr.Spectr_manager.make ~platform:pixel ())),
          54.19 );
        ( "SPECTR+R-3c", pixel,
          (fun () ->
            fst (Spectr.Spectr_manager.make_reconfigurable ~platform:pixel ())),
          134.19 );
      ]

(* Mean bytes per Node.tick after the boot warm-up under a 3 W cap,
   counted in one window ({!Alloc.bytes}) over 2000 ticks: the
   fleet's half of the closed loop ({!Spectr.Scenario.close_loop}) plus
   the node's epoch accounting.  A ratchet like the Manager.step one:
   each ceiling is the reading after the last change that lowered it,
   rounded up to the hundredth.  The heartbeat monitor's per-tick form
   ({!Spectr_platform.Heartbeats.observe}) took 64 B off every row, the
   managers' flat actuation 96-144 B more, and a window that stopped
   counting its own 96 B of float boxes 0.05 B. *)
let test_node_tick_bytes () =
  let ticks = 2000 in
  List.iter
    (fun (label, platform, reconfigurable, ceiling) ->
      let node =
        Spectr_fleet.Node.create ~platform ~reconfigurable ~id:0 ~seed:42L
          ~workload:Benchmarks.x264 ()
      in
      Spectr_fleet.Node.set_cap node 3.;
      Spectr_fleet.Node.warm_up node;
      let per_tick =
        bytes_per_iter ticks (fun n ->
            for _ = 1 to n do
              Spectr_fleet.Node.tick node ~dt:0.05
            done)
      in
      check_bool
        (Printf.sprintf "%s: %.2f B/tick (ceiling %.2f)" label per_tick ceiling)
        true (per_tick <= ceiling))
    [
      ("exynos5422", Platform_desc.exynos5422, false, 105.12);
      ("pixel8pro", Platform_desc.pixel8pro, false, 104.88);
      ("SPECTR+R", Platform_desc.exynos5422, true, 169.12);
    ]

(* The fleet's epoch-boundary calls, counted in closed windows
   ({!Alloc.bytes}) on a warm node under a 3 W cap.  [Node.report]
   refreshes the node's own report in place: 0 B per call.
   [Node.checkpoint] copies every layer's state into the saved state
   [Node.create] allocated: it reads 0.1 B per call, under a 16 B
   floor.  When checkpoints were marshalled from snapshot records into
   a byte buffer the node kept, a call read 2 792 B on exynos5422 and
   4 040 B on pixel8pro. *)
let test_node_epoch_bytes () =
  List.iter
    (fun (label, platform, ceiling) ->
      let node =
        Spectr_fleet.Node.create ~platform ~id:0 ~seed:42L
          ~workload:Benchmarks.x264 ()
      in
      Spectr_fleet.Node.set_cap node 3.;
      Spectr_fleet.Node.warm_up node;
      for _ = 1 to 5 do
        Spectr_fleet.Node.tick node ~dt:0.05
      done;
      (* [Node.create] saved the boot state; every checkpoint overwrites
         it in place. *)
      Spectr_fleet.Node.checkpoint node;
      ignore (Spectr_fleet.Node.report node : Spectr_fleet.Node.report);
      let report =
        bytes_per_iter 10_000 (fun n ->
            for _ = 1 to n do
              ignore (Sys.opaque_identity (Spectr_fleet.Node.report node))
            done)
      in
      check_bool
        (Printf.sprintf "%s Node.report: %.3f B/call" label report)
        true (report < 1.0);
      let checkpoint =
        bytes_per_iter 1000 (fun n ->
            for _ = 1 to n do
              Spectr_fleet.Node.checkpoint node
            done)
      in
      check_bool
        (Printf.sprintf "%s Node.checkpoint: %.1f B/call (ceiling %.0f)" label
           checkpoint ceiling)
        true (checkpoint <= ceiling))
    [
      ("exynos5422", Platform_desc.exynos5422, 16.);
      ("pixel8pro", Platform_desc.pixel8pro, 16.);
    ]

(* Bytes promoted to the major heap per tick of a warmed single-chip
   runner.  A long-lived record that stores a float its writer boxed
   keeps that box alive until the next minor collection promotes it;
   with the float stored flat, a collection promotes only what happens
   to be live when it runs.  Every catalogue manager runs on exynos5422
   with faults off, and SPECTR+G and SPECTR+R also run under a
   power-sensor spike burst with the chaos invariant monitors checking
   every tick, so the guard's, the fault injector's and the monitors'
   per-tick floats are on the path.  The default scenario's phases are
   stretched 25-fold; after 200 warm-up ticks a 5000-tick window minus a
   1000-tick one cancels the start-up, and each window begins with a
   full major collection.  The minor heap is shrunk to 8 Ki words while
   measuring, so the windows' difference spans 16 or more collections
   where the default 256 Ki words would span at most one.  Each ceiling
   is the reading when this gate went in, 10 % above, rounded up to the
   hundredth.  With the supervisor's, the heartbeat monitor's, the guard's, the
   fault injector's, the PID loops' and the monitors' floats stored as
   boxes, the rows read 0.14-1.52 B/tick with faults off and 9.7-9.8
   B/tick spiked.  While the fault injector built closures worth ~2 KB
   per tick under any schedule, the spiked rows read 3.28 and 3.24
   B/tick; its walk over the schedule builds none, and they read 0.78
   and 0.99.  Once the fault state was evaluated once per tick, the
   monitor allocated nothing on a passing tick and every manager
   actuated from flat arrays, they read 0.068 and 0.080 (ceilings 0.08
   and 0.09). *)
let test_chip_promotion () =
  let warm = 200 and short = 1000 and long = 5000 in
  let stretched =
    let cfg = Spectr.Scenario.default_config ~seed:42L Benchmarks.x264 in
    {
      cfg with
      Spectr.Scenario.phases =
        List.map
          (fun (ph : Spectr.Scenario.phase) ->
            { ph with Spectr.Scenario.duration_s = 25. *. ph.duration_s })
          cfg.Spectr.Scenario.phases;
    }
  in
  let spiked =
    let burst =
      Faults.injection
        (Faults.Spike_burst (Faults.Power, 4.))
        ~start_s:1.
        ~stop_s:(float_of_int (warm + short + long) *. 0.05)
    in
    {
      stretched with
      Spectr.Scenario.phases =
        List.mapi
          (fun i (ph : Spectr.Scenario.phase) ->
            if i = 0 then { ph with Spectr.Scenario.phase_faults = [ burst ] }
            else ph)
          stretched.Spectr.Scenario.phases;
    }
  in
  let promoted_per_tick ~monitored cfg v =
    let manager, sup, _, handle =
      Spectr.Variant.make Platform_desc.exynos5422 v
    in
    let runner = Spectr.Scenario.start cfg in
    let monitor = Spectr_chaos.Invariants.create ~config:cfg () in
    let live_sup () =
      match handle with
      | Some h -> Some (Spectr.Spectr_manager.Reconfig.supervisor h)
      | None -> sup
    in
    let run n =
      for _ = 1 to n do
        match Spectr.Scenario.tick runner ~manager with
        | Some obs when monitored ->
            Spectr_chaos.Invariants.check monitor ~runner ~sup:(live_sup ())
              ~obs
        | Some _ -> ()
        | None -> Alcotest.fail "scenario ended inside a window"
      done
    in
    let gc = Gc.get () in
    Gc.set { gc with Gc.minor_heap_size = 8192 };
    let window n =
      Gc.full_major ();
      let p0 = (Gc.quick_stat ()).Gc.promoted_words in
      run n;
      (Gc.quick_stat ()).Gc.promoted_words -. p0
    in
    Fun.protect
      ~finally:(fun () -> Gc.set gc)
      (fun () ->
        run warm;
        let s = window short in
        let l = window long in
        (l -. s) *. float_of_int (Sys.word_size / 8)
        /. float_of_int (long - short))
  in
  List.iter
    (fun (label, monitored, cfg, v, ceiling) ->
      let per_tick = promoted_per_tick ~monitored cfg v in
      check_bool
        (Printf.sprintf "%s: %.3f B promoted per tick (ceiling %.3f)" label
           per_tick ceiling)
        true (per_tick <= ceiling))
    Spectr.Variant.(
      List.map
        (fun v ->
          let ceiling =
            match v with
            | Spectr_r -> 0.09
            | Spectr_g -> 0.08
            | Spectr -> 0.09
            | Mm_pow -> 0.04
            | Mm_perf -> 0.04
            | Siso -> 0.01
            | Fs -> 0.02
          in
          (name v, false, stretched, v, ceiling))
        all
      @ [
          ("SPECTR+G spiked", true, spiked, Spectr_g, 0.08);
          ("SPECTR+R spiked", true, spiked, Spectr_r, 0.09);
        ])

(* Bytes per faulted, monitored chaos tick: [Scenario.tick], the
   manager's step inside it, then [Invariants.check], with every fault
   kind active in turn ([every_fault_kind]), for every variant.  Counted
   in one window ({!Alloc.bytes}) around each call, over the second of
   two identical runs: the first warms
   every memo and the synthesis cache that a permanent fault's
   re-synthesis hits.  Each ceiling is the reading once every manager
   actuated from flat arrays, 10 % above, rounded up to the hundredth;
   the manager's own step is part of it (the [Manager.step] ratchet
   above), and the rest is the [~now] box [Scenario.close_loop] hands
   it.  When the fault queries built closures and boxed the time, the
   monitor rebuilt its message closures and boxed its floats every tick,
   and the heartbeat monitor took and returned boxes, the rows read
   2 732-2 979 B; with those gone and the actuation still boxing its
   commands, 104.75-319.52 B.  A passing [Invariants.check] allocates
   nothing at all. *)
let test_faulted_tick_bytes () =
  let base = Spectr.Scenario.default_config ~seed:42L Benchmarks.x264 in
  let config =
    {
      base with
      Spectr.Scenario.phases =
        List.mapi
          (fun i (ph : Spectr.Scenario.phase) ->
            if i = 0 then
              { ph with Spectr.Scenario.phase_faults = every_fault_kind }
            else ph)
          base.Spectr.Scenario.phases;
    }
  in
  List.iter
    (fun (v, ceiling) ->
      let run () =
        let manager, sup, _, handle =
          Spectr.Variant.make Platform_desc.exynos5422 v
        in
        let runner = Spectr.Scenario.start config in
        let monitor = Spectr_chaos.Invariants.create ~config () in
        let tick_bytes = ref 0. and passing_bytes = ref 0. and ticks = ref 0 in
        let sup () =
          match handle with
          | Some h -> Some (Spectr.Spectr_manager.Reconfig.supervisor h)
          | None -> sup
        in
        let rec go () =
          let sup = sup () in
          let findings =
            List.length (Spectr_chaos.Invariants.violations monitor)
          in
          match Alloc.bytes (fun () -> Spectr.Scenario.tick runner ~manager) with
          | None, _ -> ()
          | Some obs, step ->
              let (), check =
                Alloc.bytes (fun () ->
                    Spectr_chaos.Invariants.check monitor ~runner ~sup ~obs)
              in
              tick_bytes := !tick_bytes +. step +. check;
              if
                List.length (Spectr_chaos.Invariants.violations monitor)
                = findings
              then passing_bytes := !passing_bytes +. check;
              incr ticks;
              go ()
        in
        go ();
        (!tick_bytes /. float_of_int !ticks, !passing_bytes)
      in
      ignore (run ());
      let per_tick, passing = run () in
      let name = Spectr.Variant.name v in
      check_bool
        (Printf.sprintf "%s: %.2f B per faulted, monitored tick (ceiling %.2f)"
           name per_tick ceiling)
        true (per_tick <= ceiling);
      check_bool
        (Printf.sprintf "%s: passing checks allocate %.0f B" name passing)
        true (passing = 0.))
    Spectr.Variant.
      [
        (Spectr_r, 208.48);
        (Spectr_g, 59.84);
        (Spectr, 51.57);
        (Mm_pow, 57.18);
        (Mm_perf, 44.24);
        (Siso, 34.85);
        (Fs, 35.67);
      ]

(* [Coordinator.rebudget] allocates the caps array it returns and
   nothing else: over 512 reports that is 4 104 B, and the gate allows
   1 KiB beside it.  The budget forces the water-filling bisection,
   where a per-node helper that is not inlined boxes the float it
   returns, once per node per iteration: the allocating version read
   382 576 B per call. *)
let test_rebudget_bytes () =
  let n = 512 in
  let reports =
    Array.init n (fun i ->
        let power = 1. +. (3. *. float_of_int (i mod 7) /. 7.) in
        let debt = if i mod 3 = 0 then 0.2 else 0. in
        {
          Spectr_fleet.Node.r_id = i;
          r_alive = i mod 11 <> 0;
          r_background = 0;
          r_workload = "x264";
          r_kills = 0;
          r_restarts = 0;
          r_m =
            {
              Spectr_fleet.Node.r_max_power = 5.;
              r_cap = 2.5;
              r_power = power;
              r_sensor_power = power;
              r_qos = 50.;
              r_qos_ref = 60.;
              r_debt = debt;
              r_total_debt = debt;
            };
        })
  in
  let rebudget policy () =
    Spectr_fleet.Coordinator.rebudget ~policy
      ~global_cap:(2.5 *. float_of_int n) ~config:Spectr_fleet.Node.default_config
      ~epoch_s:0.25 reports
  in
  let budget = float_of_int ((n + 1) * 8) +. 1024. in
  List.iter
    (fun policy ->
      let caps, bytes = Alloc.bytes (rebudget policy) in
      check_int "one cap per report" n (Array.length caps);
      check_bool
        (Printf.sprintf "rebudget %s: %.0f B (budget %.0f)"
           (Spectr_fleet.Coordinator.string_of_policy policy)
           bytes budget)
        true (bytes <= budget))
    Spectr_fleet.Coordinator.[ Water_filling; Static_split; Uncoordinated ]

(* ------------------------------------------------------------------ *)
(* Scenario CSV byte-identity pins                                     *)
(* ------------------------------------------------------------------ *)

(* MD5 digests of x264 scenarios (seed 42, 300 rows).  The first three
   run the default scenario under three managers and were recorded before
   the zero-allocation refactor landed.  The faulted SPECTR+G run carries
   a power-sensor spike window in the safe phase and a permanently dead
   Little cluster from 1 s into the emergency phase, so its [true_power]
   column pins the SoC's ground-truth physics (dead-cluster masking
   included) bit for bit.  Any hot-path change that shifts a single
   float expression — noise draw order, accumulation order, a skipped
   clamp — changes these. *)
let pinned =
  [
    ("spectr", "ab3b5b5ef6ec4920c18d5f0a4117cbc1");
    ("mm-pow", "96be8102f7bac038240ca64962ed878b");
    ("siso", "d599bdd2e64cbd24c48b6fd21efaf08a");
    ("spectr+g faulted", "c1c94f231fcf67cda937620c2d58a015");
  ]

let faulted_config cfg =
  let phases =
    List.map
      (fun (ph : Spectr.Scenario.phase) ->
        let faults =
          match ph.Spectr.Scenario.phase_name with
          | "safe" ->
              [
                Faults.injection
                  (Faults.Spike_burst (Faults.Power, 4.))
                  ~start_s:2. ~stop_s:3.5;
              ]
          | "emergency" ->
              [ Faults.permanent (Faults.Cluster_dead 1) ~start_s:1. ]
          | _ -> []
        in
        { ph with Spectr.Scenario.phase_faults = faults })
      cfg.Spectr.Scenario.phases
  in
  { cfg with Spectr.Scenario.phases }

let scenario_digest ?(faulted = false) make_manager =
  let cfg = Spectr.Scenario.default_config ~seed:42L Benchmarks.x264 in
  let cfg = if faulted then faulted_config cfg else cfg in
  let trace = Spectr.Scenario.run ~manager:(make_manager ()) cfg in
  check_int "pinned run length" 300 (Trace.length trace);
  if faulted then
    check_bool "true_power column" true
      (Trace.column_index trace "true_power" >= 0);
  Digest.to_hex (Digest.string (Trace.to_csv trace))

let test_pinned_digests () =
  List.iter
    (fun (name, digest) ->
      (* Built through the catalogue, so a change to how it builds a
         variant reaches these pins. *)
      let faulted, variant =
        match String.split_on_char ' ' name with
        | [ v; "faulted" ] -> (true, Spectr.Variant.of_string v)
        | _ -> (false, Spectr.Variant.of_string name)
      in
      let make () =
        let m, _, _, _ = Spectr.Variant.make Platform_desc.exynos5422 variant in
        m
      in
      check_string (name ^ " CSV digest") digest
        (scenario_digest ~faulted make))
    pinned

(* MD5 of every designed gain set of a key — kx, kz, l row-major and the
   integrator leak, each printed as an exact hex float — recorded when
   the doubling DARE solver replaced value iteration (the gains moved by
   at most 1.2e-8 of each matrix's largest entry; no trace digest moved).
   One digest per cold design key: the exynos big/little clusters and
   the full-system 4x2 controller, and the three pixel8pro clusters
   (whose cluster 2 takes the leaky-integrator retry). *)
let gain_digest gains =
  let buf = Buffer.create 1024 in
  List.iter
    (fun g ->
      Buffer.add_string buf g.Lqg.label;
      List.iter
        (fun m ->
          Array.iter
            (Array.iter (fun x -> Buffer.add_string buf (Printf.sprintf " %h" x)))
            (Matrix.to_arrays m);
          Buffer.add_char buf ';')
        [ g.Lqg.kx; g.Lqg.kz; g.Lqg.l ];
      Buffer.add_string buf (Printf.sprintf " leak %h\n" g.Lqg.leak))
    gains;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pinned_gains =
  let fs_goal = [ { Spectr.Design_flow.label = "power"; q_y = [| 0.1; 30. |] } ] in
  let pixel i =
    Spectr.Design_flow.cluster_subsystem Platform_desc.pixel8pro i
  in
  Spectr.Design_flow.
    [
      ("exynos big", Big_2x2, Spectr.Mm.goals, "1ee2a2a0663e78fa4f29297885ee291a");
      ("exynos little", Little_2x2, Spectr.Mm.goals, "e069fea97f1c6df7014552df0466071d");
      ("exynos fs", Fs_4x2, fs_goal, "d13682dd60f4f063e2e9252840d7ecdf");
      ("pixel8pro c0", pixel 0, Spectr.Mm.goals, "14dc84a4eaad9685f7e1de8cfee22e58");
      ("pixel8pro c1", pixel 1, Spectr.Mm.goals, "1d64db0e7401b5be6ff13ac7037f69a0");
      ("pixel8pro c2", pixel 2, Spectr.Mm.goals, "37f031cac6de1eddbedabe377ca7ffe9");
    ]

(* big-2x2's on-demand validation report, each channel's free-simulation
   fit, one-step R² and rmse as exact hex floats — recorded while the
   report was still built inside identify, so moving it out (and the
   one-pass standardization, regressor rows and single prediction pass
   beneath it) moved no bit. *)
let test_pinned_big_report () =
  let report =
    Spectr.Design_flow.validation
      (Spectr.Design_flow.identify Spectr.Design_flow.Big_2x2)
  in
  let line c =
    Spectr_sysid.Validation.(
      Printf.sprintf "%s fit %h r2 %h rmse %h" c.name c.fit_percent c.r_squared
        c.rmse)
  in
  Alcotest.(check (array string))
    "big-2x2 report"
    [|
      "qos fit 0x1.540846d2ac598p+6 r2 0x1.f80cc941dd734p-1 rmse \
       0x1.2037fe530955cp-3";
      "big-power fit 0x1.25021daf9bf7p+6 r2 0x1.f1b876649fbbep-1 rmse \
       0x1.d019a5c1a717cp-3";
    |]
    (Array.map line report.Spectr_sysid.Validation.channels)

(* An identification result as exact hex floats: each channel's name,
   offset and scale, then the ARX coefficient matrix [A₁ … A_na B₁ …
   B_nb] row by row. *)
let identification_lines ident =
  let open Spectr.Design_flow in
  let channel c =
    Printf.sprintf "%s offset %h scale %h" c.Mimo.name c.offset c.scale
  in
  let row r = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") r)) in
  Array.concat
    [
      Array.map channel ident.input_channels;
      Array.map channel ident.output_channels;
      Array.map row (Matrix.to_arrays ident.model.Spectr_sysid.Arx.theta);
    ]

(* Two experiment shapes no other tier-1 pin reaches, recorded before
   the five subsystems' experiments became one record of knobs and
   sensors: a k-cluster secondary identified under background load
   (GIPS output, derived excitation range), line by line, and the 10×10
   per-core idle/GIPS experiment, as the MD5 of its 30 lines. *)
let test_pinned_identifications () =
  let module D = Spectr.Design_flow in
  Alcotest.(check (array string))
    "k4 c1 identification"
    [|
      "c1-freq-ghz offset 0x1.0189374bc6a78p+0 scale 0x1.0f3dfb6e7c20fp-2";
      "c1-cores offset 0x1.78da740da740ep+1 scale 0x1.a4fa4e11ebe72p-1";
      "c1-gips offset 0x1.beb1e073b12a7p+1 scale 0x1.d8ecd56b136fcp-1";
      "c1-power offset 0x1.14d49086db22p-1 scale 0x1.82fe6fe235415p-3";
      "0x1.3eeeb9768d1a1p-2 0x1.820b7fdd36614p-3 0x1.87bf317ad4021p-4 \
       -0x1.648532301a79ep-4 0x1.f68ef09c593edp-2 0x1.c59a978f7d2ffp-1 \
       -0x1.22a881c393ebep-2 -0x1.a5b30fe3c33f1p-2";
      "-0x1.0d96f641a58acp-8 0x1.890d32a65c2e9p-1 0x1.75473c5fb8e03p-7 \
       -0x1.42d1af7512037p-6 0x1.836c82bcea7bp-1 0x1.54f41d07de4e3p-1 \
       -0x1.2104715451c2cp-1 -0x1.00e020077882p-1";
    |]
    (identification_lines
       (D.identify (D.cluster_subsystem (Platform_desc.k_cluster 4) 1)));
  check_string "large-10x10 identification digest"
    "4a852183dcae83e943f197cf60f47d36"
    (Digest.to_hex
       (Digest.string
          (String.concat "\n"
             (Array.to_list (identification_lines (D.identify D.Large_10x10))))))

let test_pinned_gain_digests () =
  List.iter
    (fun (name, subsystem, goals, digest) ->
      match Spectr.Design_flow.design_gains_for subsystem goals with
      | Ok gains -> check_string (name ^ " gain digest") digest (gain_digest gains)
      | Error msg -> Alcotest.failf "%s: design failed: %s" name msg)
    pinned_gains

let with_pool ~jobs f =
  let pool = Spectr_exec.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Spectr_exec.Pool.shutdown pool) (fun () -> f pool)

(* Goal design is sequential wherever it runs: inside a pool task (a
   fleet node, a chaos cell, a bench grid) every key gives the pinned
   bits, as on the main domain. *)
let test_pinned_gain_digests_any_schedule () =
  let keys =
    List.map
      (fun (name, subsystem, goals, digest) ->
        (name, Spectr.Design_flow.identify subsystem, goals, digest))
      pinned_gains
  in
  let check_all setting results =
    List.iter2
      (fun (name, _, _, digest) result ->
        match result with
        | Ok gains ->
            check_string
              (Printf.sprintf "%s gain digest, %s" name setting)
              digest (gain_digest gains)
        | Error msg -> Alcotest.failf "%s: design failed: %s" name msg)
      keys results
  in
  let design (_, ident, goals, _) = Spectr.Design_flow.design_gains ident goals in
  check_all "main domain" (List.map design keys);
  with_pool ~jobs:2 (fun pool -> check_all "inside a pool task" (Spectr_exec.Pool.map pool design keys))

(* The leak each design key's ladder settles on, for every goal: 1 (exact
   integral action) except where an input never moves, so that a column
   of the DC gain is 0 and the leak-1 DARE has no stabilizing solution —
   pixel8pro cluster 2 (one core, its cores input constant) and every
   k-cluster platform's clusters 3 and up — which take 0.995.  The
   widths run to 16, the largest [k_cluster] accepts, so every rung's
   strict-decay gate is exercised on each shipped width. *)
let test_chosen_leaks () =
  let module D = Spectr.Design_flow in
  let keys =
    List.map
      (fun (name, subsystem, goals, _) ->
        (name, subsystem, goals, if name = "pixel8pro c2" then 0.995 else 1.0))
      pinned_gains
    @ List.concat_map
        (fun k ->
          List.init k (fun i ->
              ( Printf.sprintf "k%d c%d" k i,
                D.cluster_subsystem (Platform_desc.k_cluster k) i,
                Spectr.Mm.goals,
                if i >= 3 then 0.995 else 1.0 )))
        [ 2; 3; 4; 6; 8; 16 ]
  in
  List.iter
    (fun (name, subsystem, goals, expected) ->
      match D.design_gains_for subsystem goals with
      | Ok gains ->
          List.iter
            (fun g ->
              check_bool
                (Printf.sprintf "%s %s: leak %g" name g.Lqg.label g.Lqg.leak)
                true (g.Lqg.leak = expected))
            gains
      | Error msg -> Alcotest.failf "%s: design failed: %s" name msg)
    keys

(* [design_gains] returns the first failing goal's [Error], on the main
   domain and inside a pool task alike. *)
let test_design_gains_error_order () =
  let ident = Spectr.Design_flow.identify Spectr.Design_flow.Big_2x2 in
  let qos, power =
    match Spectr.Mm.goals with [ q; p ] -> (q, p) | _ -> assert false
  in
  let short = { Spectr.Design_flow.label = "short"; q_y = [| 1. |] } in
  let negative = { Spectr.Design_flow.label = "negative"; q_y = [| -1.; 1. |] } in
  let short_msg = "goal short: q_y must have 2 entries" in
  let negative_msg = "goal negative: bad weights: q_y entries must be nonnegative" in
  let cases =
    [
      ("[short; good]", [ short; qos ], short_msg);
      ("[good; short]", [ qos; short ], short_msg);
      ("[good; good; short]", [ qos; power; short ], short_msg);
      ("[negative; short]", [ negative; short ], negative_msg);
      ("[good; negative; short]", [ qos; negative; short ], negative_msg);
    ]
  in
  let expect name msg result =
    match result with
    | Ok _ -> Alcotest.failf "%s: expected Error %S" name msg
    | Error got -> check_string name msg got
  in
  with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun (name, goals, msg) ->
          expect (name ^ ", main domain") msg
            (Spectr.Design_flow.design_gains ident goals);
          match
            Spectr_exec.Pool.map pool
              (fun () -> Spectr.Design_flow.design_gains ident goals)
              [ () ]
          with
          | [ r ] -> expect (name ^ ", inside a pool task") msg r
          | _ -> assert false)
        cases)

(* ------------------------------------------------------------------ *)
(* Batch arena equivalence                                             *)
(* ------------------------------------------------------------------ *)

let test_arena_checkout_equals_fresh () =
  let arena = Spectr_chaos.Arena.create () in
  List.iter
    (fun variant ->
      let cfg = Spectr.Scenario.default_config ~seed:42L Benchmarks.x264 in
      let fresh, _, _, _ = Spectr_chaos.Campaign.make_manager variant in
      let d_fresh =
        Digest.string (Trace.to_csv (Spectr.Scenario.run ~manager:fresh cfg))
      in
      (* First checkout builds; run it dirty, then check out again so
         the pristine-reset path is what's under test. *)
      let warm, _, _, _ = Spectr_chaos.Arena.checkout arena variant in
      ignore (Spectr.Scenario.run ~manager:warm cfg : Trace.t);
      let warm, _, _, _ = Spectr_chaos.Arena.checkout arena variant in
      let d_warm =
        Digest.string (Trace.to_csv (Spectr.Scenario.run ~manager:warm cfg))
      in
      check_string
        (Spectr_chaos.Campaign.variant_name variant ^ " arena digest")
        (Digest.to_hex d_fresh) (Digest.to_hex d_warm))
    Spectr_chaos.Campaign.[ Spectr_r; Spectr_g; Spectr; Mm_pow; Mm_perf; Siso; Fs ]

let test_arena_cells_equal_cold_cells () =
  let spec = Spectr_chaos.Campaign.default_spec ~seed:11 ~cells:6 () in
  (* SPECTR+R cells that each latch a permanent fault: every warm
     checkout after the first resets a slot left on a degraded plant. *)
  let reconfig =
    Spectr_chaos.Campaign.default_spec ~seed:11 ~cells:3
      ~variants:[ Spectr_chaos.Campaign.Spectr_r ] ~reconfig_prob:1. ()
  in
  let cells =
    Spectr_chaos.Campaign.generate spec @ Spectr_chaos.Campaign.generate reconfig
  in
  let arena = Spectr_chaos.Arena.create () in
  List.iter
    (fun cell ->
      let cold = Spectr_chaos.Engine.run_cell cell in
      let warm = Spectr_chaos.Engine.run_cell ~arena cell in
      check_string "cell digest" cold.Spectr_chaos.Engine.digest
        warm.Spectr_chaos.Engine.digest;
      check_int "cell violations"
        (List.length cold.Spectr_chaos.Engine.violations)
        (List.length warm.Spectr_chaos.Engine.violations);
      check_bool "cell ladder rung" true
        (cold.Spectr_chaos.Engine.reconfig_status
        = warm.Spectr_chaos.Engine.reconfig_status))
    cells

(* Every sweep shares the process-wide warm slots instead of pinning a
   fresh set per arena, so live heap words after a full major GC stay
   flat over repeated campaigns. *)
let test_arena_soak_heap_flat () =
  let spec =
    Spectr_chaos.Campaign.default_spec ~seed:5 ~cells:2
      ~variants:[ Spectr_chaos.Campaign.Spectr ] ~kill_prob:0. ()
  in
  let soak () = ignore (Spectr_chaos.Soak.run spec : Spectr_chaos.Soak.report) in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  soak ();
  soak ();
  let before = live_words () in
  for _ = 1 to 6 do
    soak ()
  done;
  let after = live_words () in
  check_bool
    (Printf.sprintf "live words flat over 6 sweeps (%d -> %d)" before after)
    true
    (after - before < 2048)

(* ------------------------------------------------------------------ *)
(* Memoized gain design                                                *)
(* ------------------------------------------------------------------ *)

let test_design_gains_for_cached () =
  let goals = [ { Spectr.Design_flow.label = "power"; q_y = [| 0.1; 30. |] } ] in
  let a = Spectr.Design_flow.design_gains_for Spectr.Design_flow.Fs_4x2 goals in
  let b = Spectr.Design_flow.design_gains_for Spectr.Design_flow.Fs_4x2 goals in
  (match (a, b) with
  | Ok ga, Ok gb ->
      (* Single-flight: the very same list comes back, not a re-run. *)
      check_bool "same gains list shared" true (ga == gb)
  | _ -> Alcotest.fail "design_gains_for failed");
  (* And it matches the uncached pipeline bit for bit. *)
  let ident = Spectr.Design_flow.identify Spectr.Design_flow.Fs_4x2 in
  match (a, Spectr.Design_flow.design_gains ident goals) with
  | Ok ga, Ok gu ->
      List.iter2
        (fun g1 g2 ->
          check_string "gain label" g1.Lqg.label g2.Lqg.label;
          check_bool "gain matrices equal" true
            (Matrix.to_arrays g1.Lqg.kx = Matrix.to_arrays g2.Lqg.kx))
        ga gu
  | _ -> Alcotest.fail "uncached design failed"

(* ------------------------------------------------------------------ *)
(* _into variants are bit-identical                                    *)
(* ------------------------------------------------------------------ *)

let build_test_mimo () =
  let ident = Spectr.Design_flow.identify Spectr.Design_flow.Big_2x2 in
  let gains =
    match Spectr.Design_flow.design_gains_for Spectr.Design_flow.Big_2x2 Spectr.Mm.goals with
    | Ok g -> g
    | Error m -> Alcotest.failf "design failed: %s" m
  in
  Spectr.Design_flow.build_mimo ident ~gains ~initial:"qos"
    ~refs:[| 60.; 4. |]

let test_mimo_step_into_equals_step () =
  let c1 = build_test_mimo () in
  let c2 = build_test_mimo () in
  let dst = [| 0.; 0. |] in
  for i = 0 to 49 do
    let qos = 40. +. (10. *. sin (0.3 *. float_of_int i)) in
    let power = 3. +. (0.8 *. cos (0.17 *. float_of_int i)) in
    let u1 = Mimo.step c1 ~measured:[| qos; power |] in
    Mimo.step_into c2 ~measured:[| qos; power |] ~dst;
    check_float "command 0" u1.(0) dst.(0);
    check_float "command 1" u1.(1) dst.(1)
  done;
  (* Full state agreement, not just the commands. *)
  check_bool "saved states equal" true (Mimo.saved c1 = Mimo.saved c2)

(* The leaf controller's two runtime entry points together: a control
   period and a gain switch (with its bumpless-transfer solve) per
   iteration, alternating between the two gain sets. *)
let test_mimo_step_and_switch_zero_alloc () =
  let ctrl = build_test_mimo () in
  let measured = [| 45.; 3.5 |] and dst = [| 0.; 0. |] in
  let round n =
    for i = 1 to n do
      Mimo.step_into ctrl ~measured ~dst;
      Mimo.switch_gains ctrl (if i land 1 = 0 then "qos" else "power")
    done
  in
  round 500;
  let per_iter = bytes_per_iter 20_000 round in
  check_bool
    (Printf.sprintf "Mimo.step_into + switch_gains: %.3f B/call" per_iter)
    true (per_iter < 1.0)

(* The bumpless transfer in scratch equals its allocating form,
   z_new = solve (Kz' Kz + 1e-9 I) (Kz' Kz_old z), bit for bit. *)
let test_switch_gains_equals_normal_equations () =
  let ctrl = build_test_mimo () in
  for i = 0 to 39 do
    let qos = 20. +. (5. *. sin (0.2 *. float_of_int i)) in
    ignore (Mimo.step ctrl ~measured:[| qos; 5.5 |] : float array)
  done;
  let gains label =
    match Spectr.Design_flow.design_gains_for Spectr.Design_flow.Big_2x2 Spectr.Mm.goals with
    | Ok gs -> List.find (fun g -> g.Lqg.label = label) gs
    | Error m -> Alcotest.failf "design failed: %s" m
  in
  let z = (Mimo.saved ctrl).Mimo.z in
  let kz = (gains "power").Lqg.kz in
  let kzt = Matrix.transpose kz in
  let p = Matrix.rows z in
  let expected =
    Matrix.solve
      (Matrix.add (Matrix.mul kzt kz) (Matrix.scale 1e-9 (Matrix.identity p)))
      (Matrix.mul kzt (Matrix.mul (gains "qos").Lqg.kz z))
  in
  check_bool "integrators wound" true (Matrix.max_abs z > 0.);
  Mimo.switch_gains ctrl "power";
  let bits a = Array.map (Array.map Int64.bits_of_float) a in
  check_bool "z after switch" true
    (bits (Matrix.to_arrays expected)
    = bits (Matrix.to_arrays (Mimo.saved ctrl).Mimo.z))

let test_kalman_correct_into_equals_correct () =
  let l = Matrix.init ~rows:2 ~cols:2 (fun i j -> 0.1 +. float_of_int (i + (2 * j))) in
  let c = Matrix.init ~rows:2 ~cols:2 (fun i j -> if i = j then 1.0 else 0.3) in
  let xhat = Matrix.init ~rows:2 ~cols:1 (fun i _ -> 0.5 +. float_of_int i) in
  let y = Matrix.init ~rows:2 ~cols:1 (fun i _ -> 1.1 *. float_of_int (i + 1)) in
  let pure = Kalman.correct ~l ~c ~xhat ~y in
  let dst = Matrix.zeros ~rows:2 ~cols:1 in
  let tmp_p = Matrix.zeros ~rows:2 ~cols:1 in
  let tmp_n = Matrix.zeros ~rows:2 ~cols:1 in
  Kalman.correct_into ~l ~c ~xhat ~y ~tmp_p ~tmp_n ~dst;
  check_bool "bit-identical correction" true
    (Matrix.to_arrays pure = Matrix.to_arrays dst)

(* ------------------------------------------------------------------ *)
(* Power-threshold boundaries: metrics 1.02 vs invariants 1.05         *)
(* ------------------------------------------------------------------ *)

let test_threshold_constants_distinct () =
  check_float "metrics allowance" 1.02 Spectr.Metrics.power_allowance;
  check_float "invariants guardband" 0.05
    Spectr_chaos.Invariants.limits.Spectr_chaos.Invariants.guardband;
  (* The difference is intentional (metrology tolerance vs safety
     margin); collapsing one onto the other is a regression. *)
  check_bool "allowance below guardbanded cap" true
    (Spectr.Metrics.power_allowance
    < 1. +. Spectr_chaos.Invariants.limits.Spectr_chaos.Invariants.guardband)

let test_metrics_allowance_boundary () =
  let envelope = 2.0 in
  let limit = envelope *. Spectr.Metrics.power_allowance in
  (* Exactly at the allowance: compliant from the start. *)
  check_bool "at limit complies" true
    (Spectr.Metrics.recovery_time ~envelope ~dt:0.05 ~after:0
       [| limit; limit; limit |]
    = Some 0.0);
  (* A hair above: first sample violates, recovery starts one dt later. *)
  check_bool "above limit delays recovery" true
    (Spectr.Metrics.recovery_time ~envelope ~dt:0.05 ~after:0
       [| limit +. 1e-9; limit; limit |]
    = Some 0.05);
  (* Never re-complying yields None, not a large number. *)
  check_bool "never complies" true
    (Spectr.Metrics.recovery_time ~envelope ~dt:0.05 ~after:0
       [| limit; limit; limit +. 1e-9 |]
    = None)

(* The invariants' cap arithmetic: violations begin strictly above
   envelope × (1 + guardband), so power between the metrics allowance
   and the guardband is non-compliant for evaluation purposes yet safe
   for the soak invariant — the gap the two constants exist to express. *)
let test_guardband_boundary () =
  let envelope = 2.0 in
  let lim = Spectr_chaos.Invariants.limits in
  let cap = envelope *. (1. +. lim.Spectr_chaos.Invariants.guardband) in
  let allowance = envelope *. Spectr.Metrics.power_allowance in
  check_bool "gap exists" true (allowance < cap);
  (* 2.06 W: fails the metric, passes the invariant. *)
  let between = 2.06 in
  check_bool "between thresholds" true (between > allowance && between <= cap);
  check_bool "metric rejects" true
    (Spectr.Metrics.recovery_time ~envelope ~dt:0.05 ~after:0
       [| between; between |]
    = None)

(* ------------------------------------------------------------------ *)
(* Temperature fault channel and noise config                          *)
(* ------------------------------------------------------------------ *)

let test_temp_noise_config () =
  check_float "default temp noise" 0.01 Soc.default_config.Soc.temp_noise;
  (* With the temperature sensor's noise zeroed, the observation reads
     the true die temperature exactly. *)
  let config = { Soc.default_config with Soc.temp_noise = 0. } in
  let soc = Soc.create ~config ~qos:Benchmarks.x264 () in
  let obs = Soc.make_observation () in
  for _ = 1 to 20 do
    Soc.step_into soc ~dt:0.05 obs
  done;
  check_float "noiseless temp sensor" (Soc.temperature soc)
    obs.Soc.temperature_c

let test_faults_apply_temp () =
  let f =
    Faults.create
      [ Faults.injection (Faults.Stuck_at_last Faults.Temp) ~start_s:1.0 ~stop_s:2.0 ]
  in
  let temp_at now v =
    Faults.advance f { Faults.now };
    let sens = [| 1.; 1.; 57.; v |] in
    Faults.apply_sensors f sens ~k:2;
    sens.(3)
  in
  (* Healthy before the window; the reading passes through and is
     recorded as last-healthy. *)
  check_float "healthy passes through" 50.0 (temp_at 0.5 50.0);
  (* Inside the window the sensor repeats the last healthy reading. *)
  check_float "stuck repeats last" 50.0 (temp_at 1.5 70.0);
  (* Healthy again after clearance. *)
  check_float "recovers" 72.0 (temp_at 2.5 72.0)

(* ------------------------------------------------------------------ *)
(* Trace preallocation and index accessors                             *)
(* ------------------------------------------------------------------ *)

let test_trace_cap_and_index () =
  let t = Trace.create ~cap:2 ~columns:[ "a"; "b" ] () in
  (* cap is a hint, not a limit: growth past it still works. *)
  for i = 1 to 5 do
    Trace.add t [| float_of_int i; float_of_int (10 * i) |]
  done;
  check_int "length past cap" 5 (Trace.length t);
  let ib = Trace.column_index t "b" in
  check_int "column index" 1 ib;
  check_float "last_ix agrees" (Trace.last t "b") (Trace.last_ix t ib);
  check_bool "column_ix agrees" true (Trace.column t "b" = Trace.column_ix t ib)

(* ------------------------------------------------------------------ *)
(* Prng hot-path entry points                                          *)
(* ------------------------------------------------------------------ *)

let test_skip_gaussian_stream_equivalence () =
  let g1 = Prng.create 7L in
  let g2 = Prng.create 7L in
  ignore (Prng.gaussian g1 ~mu:0. ~sigma:1. : float);
  Prng.skip_gaussian g2;
  (* Skipping must consume exactly the draws a real gaussian does, so
     the streams stay aligned. *)
  check_bool "streams aligned" true (Prng.int64 g1 = Prng.int64 g2)

let test_noisy_into_equivalence () =
  let g1 = Prng.create 9L in
  let g2 = Prng.create 9L in
  let buf = [| 2.0; 3.0; 4.0 |] in
  Prng.noisy_into g1 ~sigma:0.1 ~dst:buf ~pos:0 ~len:3 ;
  let expect =
    Array.map (fun v -> v *. (1. +. Prng.gaussian g2 ~mu:0. ~sigma:0.1))
      [| 2.0; 3.0; 4.0 |]
  in
  Array.iteri (fun i v -> check_float "noisy value" expect.(i) v) buf

let test_prng_blit () =
  let g = Prng.create 21L in
  ignore (Prng.int64 g : int64);
  let snap = Prng.create 0L in
  Prng.blit ~src:g ~dst:snap;
  let a = Prng.int64 g in
  let b = Prng.int64 snap in
  check_bool "blit restores stream" true (a = b)

let () =
  Alcotest.run "spectr_kernel"
    [
      ( "allocation",
        [
          Alcotest.test_case "Soc.step_into zero-alloc" `Quick
            test_soc_step_into_zero_alloc;
          Alcotest.test_case "faulted Soc tick zero-alloc" `Quick
            test_soc_faults_zero_alloc;
          Alcotest.test_case "Supervisor.step zero-alloc" `Quick
            test_supervisor_step_zero_alloc;
          Alcotest.test_case "Mimo.step_into + switch_gains zero-alloc" `Slow
            test_mimo_step_and_switch_zero_alloc;
          Alcotest.test_case "Fdir tick path zero-alloc, k=2" `Quick
            (test_fdir_zero_alloc 2);
          Alcotest.test_case "Fdir tick path zero-alloc, k=3" `Quick
            (test_fdir_zero_alloc 3);
          Alcotest.test_case "Guarded tick path zero-alloc, k=2" `Quick
            (test_guarded_zero_alloc 2);
          Alcotest.test_case "Guarded tick path zero-alloc, k=3" `Quick
            (test_guarded_zero_alloc 3);
          Alcotest.test_case "warm construction, exynos5422" `Slow
            (test_warm_construction Platform_desc.exynos5422);
          Alcotest.test_case "warm construction, pixel8pro" `Slow
            (test_warm_construction Platform_desc.pixel8pro);
          Alcotest.test_case "Manager.step bytes ratchet" `Slow
            test_manager_step_bytes;
          Alcotest.test_case "Node.tick bytes ratchet" `Slow
            test_node_tick_bytes;
          Alcotest.test_case "Node.report and Node.checkpoint bytes" `Slow
            test_node_epoch_bytes;
          Alcotest.test_case "single-chip promotion" `Slow
            test_chip_promotion;
          Alcotest.test_case "faulted monitored tick bytes" `Slow
            test_faulted_tick_bytes;
          Alcotest.test_case "Coordinator.rebudget bytes" `Quick
            test_rebudget_bytes;
          Alcotest.test_case "validation bytes" `Slow test_validation_bytes;
          Alcotest.test_case "trace CSV bytes" `Quick test_trace_csv_bytes;
          Alcotest.test_case "cold identify bytes" `Slow
            test_cold_identify_bytes;
        ] );
      ( "byte-identity",
        [
          Alcotest.test_case "pinned scenario digests" `Slow
            test_pinned_digests;
          Alcotest.test_case "pinned gain digests" `Slow
            test_pinned_gain_digests;
          Alcotest.test_case "pinned gain digests on any schedule" `Slow
            test_pinned_gain_digests_any_schedule;
          Alcotest.test_case "chosen integrator leaks" `Slow test_chosen_leaks;
          Alcotest.test_case "pinned big-2x2 validation report" `Slow
            test_pinned_big_report;
          Alcotest.test_case "pinned k4 and large-10x10 identifications" `Slow
            test_pinned_identifications;
          Alcotest.test_case "design_gains error order" `Quick
            test_design_gains_error_order;
        ] );
      ( "batch-arena",
        [
          Alcotest.test_case "checkout equals fresh" `Slow
            test_arena_checkout_equals_fresh;
          Alcotest.test_case "chaos cells equal" `Slow
            test_arena_cells_equal_cold_cells;
          Alcotest.test_case "repeated sweeps keep the heap flat" `Quick
            test_arena_soak_heap_flat;
          Alcotest.test_case "gain design memoized" `Slow
            test_design_gains_for_cached;
        ] );
      ( "into-variants",
        [
          Alcotest.test_case "Mimo.step_into = step" `Slow
            test_mimo_step_into_equals_step;
          Alcotest.test_case "switch_gains = normal equations" `Slow
            test_switch_gains_equals_normal_equations;
          Alcotest.test_case "Kalman.correct_into = correct" `Quick
            test_kalman_correct_into_equals_correct;
        ] );
      ( "thresholds",
        [
          Alcotest.test_case "constants distinct" `Quick
            test_threshold_constants_distinct;
          Alcotest.test_case "metrics allowance boundary" `Quick
            test_metrics_allowance_boundary;
          Alcotest.test_case "guardband gap" `Quick test_guardband_boundary;
        ] );
      ( "platform",
        [
          Alcotest.test_case "temp noise config" `Quick test_temp_noise_config;
          Alcotest.test_case "apply_temp channel" `Quick test_faults_apply_temp;
          Alcotest.test_case "trace cap and index" `Quick
            test_trace_cap_and_index;
          Alcotest.test_case "skip_gaussian stream" `Quick
            test_skip_gaussian_stream_equivalence;
          Alcotest.test_case "noisy_into" `Quick test_noisy_into_equivalence;
          Alcotest.test_case "prng blit" `Quick test_prng_blit;
        ] );
    ]
