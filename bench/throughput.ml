(* Tick-kernel and batch throughput (ROADMAP item 2).

   Three layers, measured separately so a regression is attributable:

   - the zero-allocation kernels themselves (Soc.step_into,
     Supervisor.step, and the Riccati.solve value-iteration step of gain
     design): steady-state bytes allocated per call must be exactly
     zero, and the call cost is a few hundred nanoseconds;
   - the one-shot scenario loop (platform + manager + trace): ticks/s
     and bytes/tick on a single domain;
   - the batch arena: many scenario cells fanned out across the domain
     pool through one warm Spectr_chaos.Arena (managers built once per
     domain per variant, reset between cells), reported as aggregate
     ticks/s.

   In --smoke mode the timing columns are suppressed (CI must not gate
   on wall clock) and the deterministic properties are enforced hard:
   the kernel allocation budgets (0 B/call), the warm-construction
   budget (64 KiB per Spectr_manager.make / Node.create once the
   platform is designed), the synthesis allocation budgets (bytes per
   transition of one-job modular synthesis and of Compose.all, at most
   half the earlier engine's; of two-job modular synthesis on the
   calling domain, at most 10 % over its measured value) and
   batch-vs-one-shot trace digest agreement for every variant.  A
   breach exits nonzero. *)

open Spectr_platform

let smoke = ref false

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let digest_of_trace tr = Digest.to_hex (Digest.string (Trace.to_csv tr))

(* Bytes allocated per iteration of [f], after [f] has already been run
   to steady state by the caller.  The Gc.allocated_bytes calls box a
   float each; amortized over the iteration count they contribute far
   below the 1 B/iter failure threshold. *)
let bytes_per_iter iters f =
  let b0 = Gc.allocated_bytes () in
  f iters;
  let b1 = Gc.allocated_bytes () in
  (b1 -. b0) /. float_of_int iters

let seconds_per_iter iters f =
  let t0 = now_s () in
  f iters;
  let t1 = now_s () in
  (t1 -. t0) /. float_of_int iters

let gate_alloc ?(per = "call") name per_iter =
  if per_iter >= 1.0 then
    failwith
      (Printf.sprintf
         "throughput: %s allocates %.2f B/%s in steady state (budget: 0)"
         name per_iter per);
  Printf.printf "  %-18s %5.2f B/%s  (budget 0)  PASS\n" name per_iter per

(* Steady-state bytes per value-iteration step of Riccati.solve.  A
   solve allocates its buffers once, then steps until convergence or the
   cap; with a negative tolerance it never converges, so it takes
   exactly [max_iter + 1] steps.  The difference in minor words between
   a 2N-step and an N-step solve is therefore N steps' allocation, with
   the per-call set-up cancelled out. *)
let riccati_bytes_per_step steps =
  let n = 10 and m = 2 in
  let a =
    Spectr_linalg.Matrix.init ~rows:n ~cols:n (fun i j ->
        if i = j then 0.9 else if j = i + 1 then 0.2 else if i = j + 2 then -0.05 else 0.)
  in
  let b =
    Spectr_linalg.Matrix.init ~rows:n ~cols:m (fun i j ->
        if i mod m = j then 1. else 0.1)
  in
  let q = Spectr_linalg.Matrix.identity n in
  let r = Spectr_linalg.Matrix.diagonal [| 1.; 2. |] in
  let words max_iter =
    let w0 = Gc.minor_words () in
    ignore (Spectr_linalg.Riccati.solve ~max_iter ~tol:(-1.) ~a ~b ~q ~r ());
    Gc.minor_words () -. w0
  in
  ignore (words steps);
  let once = words steps in
  let twice = words (2 * steps) in
  (twice -. once) *. float_of_int (Sys.word_size / 8) /. float_of_int steps

(* --- kernel microbenches ---------------------------------------------- *)

let kernel_section () =
  Util.subheading "tick kernel, steady state";
  let iters = if !smoke then 50_000 else 1_000_000 in
  (* SoC under load: background tasks keep every per-core loop busy. *)
  let soc = Soc.create ~qos:Benchmarks.x264 () in
  Soc.set_background_tasks soc 16;
  let obs = Soc.make_observation () in
  for _ = 1 to 1_000 do
    Soc.step_into soc ~dt:0.05 obs
  done;
  let soc_step n =
    for _ = 1 to n do
      Soc.step_into soc ~dt:0.05 obs
    done
  in
  gate_alloc "Soc.step_into" (bytes_per_iter iters soc_step);
  let commands =
    {
      Spectr.Supervisor.switch_gains = (fun _ -> ());
      set_power_ref = (fun _ _ -> ());
    }
  in
  let sup = Spectr.Supervisor.create ~commands ~envelope:2.0 () in
  for _ = 1 to 1_000 do
    Spectr.Supervisor.step sup ~qos:30.0 ~qos_ref:30.0 ~power:1.5 ~envelope:2.0
  done;
  let sup_step n =
    for _ = 1 to n do
      Spectr.Supervisor.step sup ~qos:30.0 ~qos_ref:30.0 ~power:1.5
        ~envelope:2.0
    done
  in
  gate_alloc "Supervisor.step" (bytes_per_iter iters sup_step);
  gate_alloc ~per:"step" "Riccati.solve"
    (riccati_bytes_per_step (if !smoke then 2_000 else 20_000));
  if not !smoke then begin
    Printf.printf "  %-18s %6.0f ns/call\n" "Soc.step_into"
      (seconds_per_iter iters soc_step *. 1e9);
    Printf.printf "  %-18s %6.0f ns/call\n" "Supervisor.step"
      (seconds_per_iter iters sup_step *. 1e9)
  end

(* --- warm construction ------------------------------------------------- *)

(* Allocation budget of one warm construction: a chip that boots into an
   already-designed fleet pays for its own state (SoC, controllers,
   supervisor cursor, a few closures — ~25 KB), not for re-deriving its
   platform's identity, plant or spec. *)
let construction_budget = 65536.

(* Minor-heap bytes per warm call of [build], from [Gc.minor_words]
   (exact and deterministic).  Blocks too large for the minor heap go
   straight to the major heap and are not counted.  Two calls first pay
   the cold design flow and synthesis; the counted calls then hit every
   process-wide memo. *)
let bytes_per_construction build =
  ignore (Sys.opaque_identity (build ()));
  ignore (Sys.opaque_identity (build ()));
  let reps = 20 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (build ()))
  done;
  (Gc.minor_words () -. w0) *. float_of_int (Sys.word_size / 8)
  /. float_of_int reps

let gate_construction name build =
  let bytes = bytes_per_construction build in
  if bytes > construction_budget then
    failwith
      (Printf.sprintf
         "throughput: warm %s allocates %.0f B/call (budget %.0f)" name bytes
         construction_budget);
  Printf.printf "  %-28s %7.0f B/call  (budget %.0f)  PASS\n" name bytes
    construction_budget;
  if not !smoke then
    Printf.printf "  %-28s %7.1f us/call\n" name
      (seconds_per_iter 200 (fun n ->
           for _ = 1 to n do
             ignore (Sys.opaque_identity (build ()))
           done)
      *. 1e6)

let construction_section () =
  Util.subheading "warm construction";
  List.iter
    (fun platform ->
      let tag = Platform_desc.name platform in
      gate_construction ("Spectr_manager.make " ^ tag) (fun () ->
          Spectr.Spectr_manager.make ~platform ());
      gate_construction ("Node.create " ^ tag) (fun () ->
          Spectr_fleet.Node.create ~platform ~id:0 ~seed:42L
            ~workload:Benchmarks.x264 ()))
    [ Platform_desc.exynos5422; Platform_desc.pixel8pro ]

(* --- synthesis allocation ---------------------------------------------- *)

(* Bytes per transition of the engine that preceded the counting-sort
   CSR and the single sharded engine, measured by [allocated_by] below
   (Gc.allocated_bytes, one domain): [supcon_modular ~jobs:1] on the
   k = 8, cap = 7 budget family per product transition (7313 states,
   65832 transitions; 469.2 is the lowest of nine runs, most read
   484.6), and [Compose.all] of 8 clusters per composed transition
   (6561 states, 69984 transitions; every run read 319.5).  The gates
   allow half of each. *)
let prior_supcon_bytes_per_transition = 469.2
let prior_compose_bytes_per_transition = 319.5

(* Bytes per product transition that [supcon_modular ~jobs:2] allocates
   on the calling domain (worker 0's share of the engine, the merge of
   fresh keys included, and the supervisor) on the same family, measured
   when the exploration began numbering states canonically.
   The gate allows 10 % more. *)
let sharded_supcon_bytes_per_transition = 107.0

let gate_synth_alloc ?(share = 0.5) name ~bytes ~transitions ~prior =
  let per = bytes /. float_of_int transitions in
  let budget = prior *. share in
  if per > budget then
    failwith
      (Printf.sprintf
         "throughput: %s allocates %.1f B per transition (budget %.1f)" name
         per budget);
  Printf.printf "  %-32s %6.1f B/transition  (budget %.1f)  PASS\n" name per
    budget

(* Emptying the minor heap first keeps objects allocated before [f] from
   being promoted, and so subtracted, during it. *)
let allocated_by f =
  Gc.minor ();
  let b0 = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. b0)

let synthesis_section () =
  Util.subheading "synthesis allocation, one domain";
  let open Spectr_automata in
  let plants = List.init 8 (fun i -> Synthesis_scale.cluster (i + 1)) in
  let spec = Synthesis_scale.budget_spec ~k:8 ~cap:7 in
  let product = Compose.pair (Compose.all plants) spec in
  let result, bytes =
    allocated_by (fun () -> Synthesis.supcon_modular ~jobs:1 ~plants ~spec ())
  in
  (match result with
  | Ok (_, st) when st.Synthesis.product_states = 7313 -> ()
  | _ -> failwith "throughput: k=8 cap=7 family lost its 7313 product states");
  gate_synth_alloc "supcon_modular k=8 cap=7" ~bytes
    ~transitions:(Automaton.num_transitions product)
    ~prior:prior_supcon_bytes_per_transition;
  let _, bytes =
    allocated_by (fun () -> Synthesis.supcon_modular ~jobs:2 ~plants ~spec ())
  in
  gate_synth_alloc ~share:1.1 "supcon_modular k=8 cap=7 jobs=2" ~bytes
    ~transitions:(Automaton.num_transitions product)
    ~prior:sharded_supcon_bytes_per_transition;
  let composed, bytes = allocated_by (fun () -> Compose.all plants) in
  gate_synth_alloc "Compose.all 8 clusters" ~bytes
    ~transitions:(Automaton.num_transitions composed)
    ~prior:prior_compose_bytes_per_transition

(* --- scenario loop ----------------------------------------------------- *)

(* The default scenario is 300 ticks; for rate measurements stretch the
   phases so per-run start cost (SoC + trace construction) amortizes
   away and the number reflects the tick path. *)
let long_config seed =
  let cfg = Spectr.Scenario.default_config ~seed Benchmarks.x264 in
  {
    cfg with
    Spectr.Scenario.phases =
      List.map
        (fun p ->
          { p with Spectr.Scenario.duration_s = p.Spectr.Scenario.duration_s *. 10. })
        cfg.Spectr.Scenario.phases;
  }

let run_config config mgr =
  let r = Spectr.Scenario.start config in
  let rec go () =
    match Spectr.Scenario.tick r ~manager:mgr with
    | Some _ -> go ()
    | None -> ()
  in
  go ();
  Spectr.Scenario.trace r

let one_shot_section () =
  Util.subheading "scenario loop (SPECTR on x264, one domain)";
  let cfg = long_config 42L in
  let ticks = Spectr.Scenario.total_ticks cfg in
  let mgr, _sup = Spectr.Spectr_manager.make () in
  ignore (run_config cfg mgr : Trace.t);
  let reps = if !smoke then 1 else 20 in
  let b0 = Gc.allocated_bytes () in
  let t0 = now_s () in
  for _ = 1 to reps do
    ignore (run_config cfg mgr : Trace.t)
  done;
  let dt = now_s () -. t0 in
  let bytes = Gc.allocated_bytes () -. b0 in
  let total = float_of_int (reps * ticks) in
  if !smoke then Printf.printf "  %d ticks/run  (timings suppressed)\n" ticks
  else
    Printf.printf "  %8.0f ticks/s   %6.0f B/tick   %5.0f ns/tick\n"
      (total /. dt) (bytes /. total)
      (dt *. 1e9 /. total);
  total /. dt

(* --- batch arena -------------------------------------------------------- *)

let variants =
  Spectr_chaos.Campaign.
    [ Spectr; Mm_pow; Mm_perf; Siso; Fs ]

(* Digest agreement: a warm arena checkout must drive a scenario to the
   byte-identical trace a freshly built manager produces.  Checked per
   variant on the default (short) config. *)
let digest_section arena =
  Util.subheading "batch-vs-one-shot digest agreement";
  List.iter
    (fun v ->
      let cfg = Spectr.Scenario.default_config ~seed:42L Benchmarks.x264 in
      let fresh, _, _, _ = Spectr_chaos.Campaign.make_manager v in
      let d_fresh = digest_of_trace (run_config cfg fresh) in
      let warm, _, _, _ = Spectr_chaos.Arena.checkout arena v in
      (* Second checkout exercises the reset path, not first build. *)
      let warm, _, _, _ =
        ignore (run_config cfg warm : Trace.t);
        Spectr_chaos.Arena.checkout arena v
      in
      let d_warm = digest_of_trace (run_config cfg warm) in
      if d_fresh <> d_warm then
        failwith
          (Printf.sprintf
             "throughput: %s batch trace diverged from one-shot (%s vs %s)"
             (Spectr_chaos.Campaign.variant_name v)
             d_warm d_fresh);
      Printf.printf "  %-8s %s  PASS\n"
        (Spectr_chaos.Campaign.variant_name v)
        d_fresh)
    variants

(* The batch regime the engine exists for: many SHORT cells (default
   300-tick scenarios, the chaos-campaign / grid-bench shape), where
   before this refactor every cell rebuilt its managers and paid the
   full LQG/robustness gain-design pipeline.  The pre-refactor per-cell
   cost is measured live against the still-public uncached
   Design_flow.design_gains, so the reported speedup tracks this
   machine, not a hardcoded baseline. *)
let batch_section one_shot_rate =
  Util.subheading "batch arena (parallel cells, warm managers)";
  let arena = Spectr_chaos.Arena.create () in
  digest_section arena;
  if not !smoke then begin
    let jobs = Spectr_exec.Parmap.jobs () in
    let cfg = Spectr.Scenario.default_config ~seed:42L Benchmarks.x264 in
    let ticks = Spectr.Scenario.total_ticks cfg in
    let cells = 64 * jobs in
    let run_cell _i =
      let mgr, _, _, _ =
        Spectr_chaos.Arena.checkout arena Spectr_chaos.Campaign.Spectr
      in
      ignore (run_config cfg mgr : Trace.t)
    in
    (* Warm every domain's slot (and the shared design cache) before
       the timed sweep. *)
    Spectr_exec.Parmap.iter run_cell (List.init jobs (fun i -> i));
    let t0 = now_s () in
    Spectr_exec.Parmap.iter run_cell (List.init cells (fun i -> i));
    let dt = now_s () -. t0 in
    let warm_rate = float_of_int (cells * ticks) /. dt in
    Printf.printf
      "  warm arena:    %4d cells x %d ticks on %d job%s: %8.0f ticks/s \
       aggregate\n"
      cells ticks jobs
      (if jobs = 1 then "" else "s")
      warm_rate;
    (* Pre-refactor shape: fresh managers per cell, gain design
       uncached.  One emulated cell is enough — design dominates. *)
    let goals = Spectr.Mm.goals in
    let ident_big = Spectr.Design_flow.identify Spectr.Design_flow.Big_2x2 in
    let ident_little =
      Spectr.Design_flow.identify Spectr.Design_flow.Little_2x2
    in
    let t0 = now_s () in
    ignore (Spectr.Design_flow.design_gains ident_big goals);
    ignore (Spectr.Design_flow.design_gains ident_little goals);
    let mgr, _sup = Spectr.Spectr_manager.make () in
    ignore (run_config cfg mgr : Trace.t);
    let cold_dt = now_s () -. t0 in
    let cold_rate = float_of_int ticks /. cold_dt in
    Printf.printf
      "  pre-refactor:  fresh managers, uncached gain design: %.0f ms/cell \
       -> %8.0f ticks/s effective\n"
      (cold_dt *. 1e3) cold_rate;
    Printf.printf "  batch speedup: %.0fx  (one-shot long-run loop: %.1fx)\n"
      (warm_rate /. cold_rate)
      (warm_rate /. one_shot_rate);
    Printf.printf "  arena checkouts: %d\n"
      (Spectr_chaos.Arena.checkouts arena)
  end

let run () =
  Util.heading "Tick-kernel and batch throughput";
  kernel_section ();
  construction_section ();
  synthesis_section ();
  let rate = one_shot_section () in
  batch_section rate;
  Printf.printf "\nthroughput: all gates passed\n"
