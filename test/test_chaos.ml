(* Chaos/soak engine tests.

   These pin the properties the reproducer workflow depends on:
   campaigns are pure functions of their seed, the engine is
   deterministic to the trace digest, a kill/restart drill with zero
   staleness is byte-invisible in the trace, the shrinker's output still
   violates, and artifacts round-trip and replay with a matching
   digest. *)

open Spectr_platform
open Spectr_chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Campaign generation                                                 *)
(* ------------------------------------------------------------------ *)

let test_campaign_determinism () =
  let spec = Campaign.default_spec ~seed:7 ~cells:12 () in
  check_bool "same spec, same cells" true
    (Campaign.generate spec = Campaign.generate spec);
  check_bool "cell_of_spec matches generate" true
    (Campaign.cell_of_spec spec 5 = List.nth (Campaign.generate spec) 5);
  let other = Campaign.default_spec ~seed:8 ~cells:12 () in
  check_bool "different seed, different cells" true
    (Campaign.generate spec <> Campaign.generate other);
  check_int "cell count" 12 (List.length (Campaign.generate spec));
  List.iteri
    (fun i c ->
      check_int "index matches position" i c.Campaign.index;
      check_bool "at least one fault" true (c.Campaign.injections <> []);
      List.iter
        (fun inj ->
          check_bool "window ordered" true
            Faults.(inj.start_s < inj.stop_s && inj.start_s >= 0.))
        c.Campaign.injections)
    (Campaign.generate spec)

(* One literal pin over a whole campaign: seven variants (SPECTR+R
   included), kill drills and permanent-fault reconfiguration drills.
   The digest covers the printed summary (findings and their decision
   log tails too) and every cell's trace digest. *)
let test_campaign_pinned () =
  let spec =
    Campaign.default_spec ~seed:23 ~cells:14
      ~variants:(Campaign.Spectr_r :: Campaign.all_variants)
      ~kill_prob:0.5 ~reconfig_prob:0.5 ()
  in
  let r = Soak.run spec in
  let digests = List.map (fun o -> o.Engine.digest) r.Soak.r_outcomes in
  check_string "campaign digest" "f17285877da05db0cf4150fa9374ae08"
    (Digest.to_hex
       (Digest.string (String.concat "," (Soak.summary r :: digests))))

let test_campaign_validation () =
  expect_invalid "zero cells" (fun () -> Campaign.default_spec ~cells:0 ());
  expect_invalid "no variants" (fun () ->
      Campaign.default_spec ~variants:[] ());
  expect_invalid "no kinds" (fun () -> Campaign.default_spec ~kinds:[] ());
  expect_invalid "kill_prob out of range" (fun () ->
      Campaign.default_spec ~kill_prob:1.5 ());
  let spec = Campaign.default_spec ~cells:4 () in
  expect_invalid "index out of range" (fun () ->
      Campaign.cell_of_spec spec 4)

let test_name_round_trips () =
  List.iter
    (fun k ->
      check_bool "invariant kind round-trips" true
        (Invariants.kind_of_string (Invariants.kind_name k) = k))
    Invariants.
      [ Power_cap; Qos_reconvergence; Supervisor_legal; Actuation_bounds;
        Non_finite ];
  expect_invalid "unknown kind" (fun () ->
      Invariants.kind_of_string "bogus")

(* The manager catalogue, the variant half of the name round-trips:
   every variant's name is its built manager's name and parses back in
   either case; FS and SISO refuse any description but exynos5422, and
   every other variant builds on the 3-cluster pixel8pro and the
   generated k3 and runs a scenario tick. *)
let test_manager_catalogue () =
  let module V = Spectr.Variant in
  List.iter
    (fun v ->
      let name = V.name v in
      let m, _, _, _ = V.make Platform_desc.exynos5422 v in
      check_string (name ^ ": built manager's name") name
        m.Spectr.Manager.name;
      check_bool (name ^ " parses") true (V.of_string name = v);
      check_bool (name ^ " parses in lowercase") true
        (V.of_string (String.lowercase_ascii name) = v))
    V.all;
  expect_invalid "unknown manager" (fun () -> V.of_string "bogus");
  List.iter
    (fun platform ->
      let on = " on " ^ Platform_desc.name platform in
      List.iter
        (fun v ->
          match v with
          | V.Siso | V.Fs ->
              expect_invalid (V.name v ^ on) (fun () -> V.make platform v)
          | _ ->
              let m, _, _, _ = V.make platform v in
              let runner =
                Spectr.Scenario.start
                  (Spectr.Scenario.default_config ~platform Benchmarks.x264)
              in
              check_bool (V.name v ^ " ticks" ^ on) true
                (Spectr.Scenario.tick runner ~manager:m <> None))
        V.all)
    [ Platform_desc.pixel8pro; Platform_desc.k_cluster 3 ]

(* ------------------------------------------------------------------ *)
(* Engine determinism and checkpoint/restore                           *)
(* ------------------------------------------------------------------ *)

let base_cell ?kill variant =
  {
    Campaign.index = 0;
    seed = 42L;
    variant;
    workload = "x264";
    injections =
      [ { Faults.fault = Faults.Dropout Faults.Power;
          start_s = 4.0; stop_s = 6.0 } ];
    kill;
  }

let test_engine_determinism () =
  let cell = base_cell Campaign.Spectr_g in
  let a = Engine.run_cell cell and b = Engine.run_cell cell in
  check_string "digest stable across runs" a.Engine.digest b.Engine.digest;
  check_int "tick count stable" a.Engine.ticks b.Engine.ticks;
  check_bool "violations stable" true
    (a.Engine.violations = b.Engine.violations)

(* A kill at tick [k] with staleness 0 restores the exact pre-kill
   state into a fresh manager: the trace must be byte-identical to the
   uninterrupted run.  Pinned across the supervisory variants named in
   the issue plus a baseline manager. *)
let test_checkpoint_exact_resume () =
  List.iter
    (fun variant ->
      let name = Campaign.variant_name variant in
      let plain = Engine.run_cell (base_cell variant) in
      let killed =
        Engine.run_cell
          (base_cell ~kill:{ Campaign.kill_tick = 120; staleness = 0 }
             variant)
      in
      check_bool (name ^ ": drill checkpointed") true
        killed.Engine.checkpointed;
      check_string
        (name ^ ": kill+restore trace byte-identical")
        plain.Engine.digest killed.Engine.digest)
    Campaign.[ Spectr_r; Spectr_g; Spectr; Mm_pow; Siso ]

(* SPECTR+R resumes exactly at every rung of the FDIR ladder: a cell
   whose cluster 1 dies is killed with zero staleness once inside the
   swap window and once on the degraded closed loop, and neither drill
   may show in the trace. *)
let test_reconfig_rung_resume () =
  let dead_cell ?kill () =
    {
      (base_cell ?kill Campaign.Spectr_r) with
      Campaign.injections =
        [ Faults.permanent (Faults.Cluster_dead 1) ~start_s:1.0 ];
    }
  in
  (* The rung after each tick of the uninterrupted run. *)
  let mgr, _, _, handle = Campaign.make_manager Campaign.Spectr_r in
  let h = Option.get handle in
  let runner = Spectr.Scenario.start (Campaign.config_of_cell (dead_cell ())) in
  let rec rungs acc =
    match Spectr.Scenario.tick runner ~manager:mgr with
    | None -> Array.of_list (List.rev acc)
    | Some _ -> rungs (Spectr.Spectr_manager.Reconfig.status h :: acc)
  in
  let rungs = rungs [] in
  let plain = Engine.run_cell (dead_cell ()) in
  List.iter
    (fun rung ->
      let name = Spectr.Spectr_manager.Reconfig.status_label rung in
      (* One tick into the rung: the kill lands after [kill_tick] ticks. *)
      let rec first i = if rungs.(i) = rung then i else first (i + 1) in
      let kill_tick = first 0 + 2 in
      check_bool (name ^ ": kill lands on the rung") true
        (rungs.(kill_tick - 1) = rung);
      let killed =
        Engine.run_cell (dead_cell ~kill:{ Campaign.kill_tick; staleness = 0 } ())
      in
      check_bool (name ^ ": drill checkpointed") true killed.Engine.checkpointed;
      check_string (name ^ ": kill+restore trace byte-identical")
        plain.Engine.digest killed.Engine.digest;
      check_bool (name ^ ": ends reconfigured") true
        (killed.Engine.reconfig_status = Some "reconfigured"))
    Spectr.Spectr_manager.Reconfig.[ Swapping; Reconfigured ]

let trace_csv runner = Trace.to_csv (Spectr.Scenario.trace runner)
let persist (m : Spectr.Manager.t) = Option.get m.Spectr.Manager.persist

(* The variant tag binds a SPECTR+R checkpoint to its boot platform and
   to the reconfigurable variant. *)
let test_reconfig_checkpoint_rejected_elsewhere () =
  let exynos, _ = Spectr.Spectr_manager.make_reconfigurable () in
  let pixel, _ =
    Spectr.Spectr_manager.make_reconfigurable
      ~platform:Platform_desc.pixel8pro ()
  in
  let guarded, _ =
    Spectr.Spectr_manager.make ~guards:(Spectr.Guarded.create ~clusters:2 ()) ()
  in
  let c = (persist exynos).Spectr.Manager.snapshot () in
  expect_invalid "exynos5422 checkpoint into pixel8pro" (fun () ->
      (persist pixel).Spectr.Manager.restore c);
  expect_invalid "pixel8pro checkpoint into exynos5422" (fun () ->
      (persist exynos).Spectr.Manager.restore
        ((persist pixel).Spectr.Manager.snapshot ()));
  expect_invalid "SPECTR+R checkpoint into SPECTR+G" (fun () ->
      (persist guarded).Spectr.Manager.restore c)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* MM-Pow's checkpoint tag is platform-qualified like SPECTR's: a
   pixel8pro MM-Pow saving into a checkpoint an exynos5422 MM-Pow wrote
   re-allocates it (the tag differs) instead of failing the shape check
   of the saved controllers, and a cross-platform restore is refused by
   the tag.  exynos5422 keeps the bare name. *)
let test_mm_checkpoint_bound_to_platform () =
  let exynos = Spectr.Mm.make_pow ~platform:Platform_desc.exynos5422 () in
  let pixel = Spectr.Mm.make_pow ~platform:Platform_desc.pixel8pro () in
  let refused what ~manager f =
    match f () with
    | () -> Alcotest.failf "%s: restore accepted" what
    | exception Invalid_argument msg ->
        check_bool (what ^ ": " ^ msg) true
          (contains msg "Manager.restore: checkpoint for"
          && contains msg (Printf.sprintf "manager is %S" manager))
  in
  let c = (persist exynos).Spectr.Manager.snapshot () in
  (persist pixel).Spectr.Manager.save c;
  refused "pixel8pro checkpoint into exynos5422" ~manager:"MM-Pow" (fun () ->
      (persist exynos).Spectr.Manager.restore c);
  (persist pixel).Spectr.Manager.restore c;
  let pixel_tag =
    "MM-Pow@" ^ String.sub (Platform_desc.digest Platform_desc.pixel8pro) 0 12
  in
  refused "exynos5422 checkpoint into pixel8pro" ~manager:pixel_tag (fun () ->
      (persist pixel).Spectr.Manager.restore
        ((persist exynos).Spectr.Manager.snapshot ()))

(* The trace of [config] when a fresh [variant] manager drives the first
   [at] ticks and a second fresh one, restored from [c], the rest: what
   the restored manager does next.  A checkpoint saved after [at] ticks
   makes it equal the uninterrupted run's. *)
let resume_trace variant config ~at c =
  let runner = Spectr.Scenario.start config in
  let first, _, _, _ = Campaign.make_manager variant in
  for _ = 1 to at do
    ignore (Spectr.Scenario.tick runner ~manager:first)
  done;
  let m, _, _, _ = Campaign.make_manager variant in
  (persist m).Spectr.Manager.restore c;
  while Spectr.Scenario.tick runner ~manager:m <> None do () done;
  trace_csv runner

let plain_trace variant config =
  let m, _, _, _ = Campaign.make_manager variant in
  let runner = Spectr.Scenario.start config in
  while Spectr.Scenario.tick runner ~manager:m <> None do () done;
  trace_csv runner

(* One checkpoint saved twice by SPECTR+R: first on the healthy
   description, then after cluster 1 died and the engine reconfigured,
   when the saved supervisor state is that of a one-cluster supervisor
   and is allocated anew.  The checkpoint must resume a fresh manager
   bit-identically: the trace equals the uninterrupted run's. *)
let test_checkpoint_regrows () =
  let cell =
    {
      (base_cell Campaign.Spectr_r) with
      Campaign.injections =
        [ Faults.permanent (Faults.Cluster_dead 1) ~start_s:1.0 ];
    }
  in
  let config = Campaign.config_of_cell cell in
  let plain = plain_trace Campaign.Spectr_r config in
  let mgr, _, _, handle = Campaign.make_manager Campaign.Spectr_r in
  let h = Option.get handle in
  let p = persist mgr in
  let c = Spectr.Manager.empty_checkpoint () in
  let runner = Spectr.Scenario.start config in
  let tick manager = ignore (Spectr.Scenario.tick runner ~manager) in
  for _ = 1 to 5 do tick mgr done;
  p.Spectr.Manager.save c;
  while
    Spectr.Spectr_manager.Reconfig.status h
    <> Spectr.Spectr_manager.Reconfig.Reconfigured
  do
    tick mgr
  done;
  tick mgr;
  p.Spectr.Manager.save c;
  let m2, _, _, _ = Campaign.make_manager Campaign.Spectr_r in
  (persist m2).Spectr.Manager.restore c;
  while Spectr.Scenario.tick runner ~manager:m2 <> None do () done;
  check_bool "re-saved checkpoint resumes bit-identically" true
    (trace_csv runner = plain)

(* Restoring does not consume a checkpoint: two fresh managers restored
   from one checkpoint, the second after the first has run on, do the
   same next — what the manager that saved it did. *)
let test_checkpoint_restores_twice () =
  List.iter
    (fun variant ->
      let name = Campaign.variant_name variant in
      let config = Campaign.config_of_cell (base_cell variant) in
      let mgr, _, _, _ = Campaign.make_manager variant in
      let runner = Spectr.Scenario.start config in
      for _ = 1 to 60 do
        ignore (Spectr.Scenario.tick runner ~manager:mgr)
      done;
      let c = (persist mgr).Spectr.Manager.snapshot () in
      let plain = plain_trace variant config in
      check_bool (name ^ ": first restore resumes") true
        (resume_trace variant config ~at:60 c = plain);
      check_bool (name ^ ": second restore resumes") true
        (resume_trace variant config ~at:60 c = plain))
    Campaign.[ Spectr_r; Spectr_g; Spectr; Mm_pow; Siso ]

(* A checkpoint shares no mutable state with the manager that saved
   it: every catalogue manager saves at tick 40 (the first save, which
   allocates) and again at tick 60 (in place), then runs 100 more ticks
   on another platform, and a fresh manager restored from the checkpoint
   still resumes the run from tick 60 bit-identically. *)
let test_checkpoint_detached () =
  List.iter
    (fun variant ->
      let name = Spectr.Variant.name variant in
      let config = Campaign.config_of_cell (base_cell variant) in
      let mgr, _, _, _ = Campaign.make_manager variant in
      let p = persist mgr in
      let c = Spectr.Manager.empty_checkpoint () in
      let runner = Spectr.Scenario.start config in
      for i = 1 to 60 do
        ignore (Spectr.Scenario.tick runner ~manager:mgr);
        if i = 40 || i = 60 then p.Spectr.Manager.save c
      done;
      (* A different workload and seed move every layer's state far from
         the save point, the Kalman estimates included. *)
      let elsewhere =
        Spectr.Scenario.start
          { config with Spectr.Scenario.seed = 99L; workload = Benchmarks.canneal }
      in
      for _ = 1 to 100 do
        ignore (Spectr.Scenario.tick elsewhere ~manager:mgr)
      done;
      check_bool (name ^ ": resumes from the save point") true
        (resume_trace variant config ~at:60 c = plain_trace variant config))
    Spectr.Variant.all

let test_bounded_staleness_determinism () =
  let cell =
    base_cell ~kill:{ Campaign.kill_tick = 120; staleness = 10 }
      Campaign.Spectr_g
  in
  let a = Engine.run_cell cell and b = Engine.run_cell cell in
  check_bool "drill checkpointed" true a.Engine.checkpointed;
  check_string "stale restore still deterministic" a.Engine.digest
    b.Engine.digest

(* ------------------------------------------------------------------ *)
(* Shrinker and artifacts                                              *)
(* ------------------------------------------------------------------ *)

(* The campaign the CLI smoke test uses: unguarded SPECTR under power
   sensor faults violates the power cap in some cells.  Find one, shrink
   it, and drive the artifact round all the way through replay. *)
let test_shrink_and_replay () =
  let spec =
    Campaign.default_spec ~seed:3 ~cells:16 ~variants:[ Campaign.Spectr ]
      ~kinds:[ Faults.Dropout Faults.Power; Faults.Stuck_at_last Faults.Power ]
      ()
  in
  let rec find i =
    if i >= spec.Campaign.cells then
      Alcotest.fail "no violating cell in the seeded campaign"
    else
      let outcome = Engine.run_cell (Campaign.cell_of_spec spec i) in
      if Engine.violates outcome then outcome else find (i + 1)
  in
  let outcome = find 0 in
  let kind = (List.hd outcome.Engine.violations).Invariants.v_kind in
  let violates c = Engine.violates ~kind (Engine.run_cell c) in
  let r = Shrink.minimize ~violates outcome.Engine.cell in
  check_bool "minimized cell still violates" true (violates r.Shrink.cell);
  check_bool "reproducer has at most 2 faults" true
    (List.length r.Shrink.cell.Campaign.injections <= 2);
  let min_out = Engine.run_cell r.Shrink.cell in
  let art =
    { Artifact.cell = r.Shrink.cell; invariant = Some kind;
      digest = Some min_out.Engine.digest }
  in
  check_bool "artifact round-trips through text" true
    (Artifact.of_string (Artifact.to_string art) = art);
  let path = Filename.temp_file "chaos-test" ".repro" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Artifact.save ~path art;
      check_bool "artifact round-trips through disk" true
        (Artifact.load ~path = art));
  let rep = Artifact.replay art in
  check_bool "replay reproduces the violation" true rep.Artifact.reproduced;
  check_bool "replay digest matches" true
    (rep.Artifact.digest_matched = Some true)

(* A finding whose minimal cell keeps a permanent fault.  The predicate
   holds while a permanent fault is present, so the shrinker drops the
   kill drill and the transient fault, keeps the permanent fault's
   infinite stop and bisects only its onset toward the end of the 12 s
   run: 2 → 7 → 9.5 → 10.75 → 11.375 → 11.6875, where one more halving
   would leave less than the 0.2 s minimum window. *)
let test_shrink_keeps_permanent () =
  let cell =
    {
      Campaign.index = 0;
      seed = 5L;
      variant = Campaign.Mm_perf;
      workload = "x264";
      injections =
        [
          Faults.injection (Faults.Dropout Faults.Power) ~start_s:1.
            ~stop_s:3.;
          Faults.permanent (Faults.Cluster_dead 1) ~start_s:2.;
        ];
      kill = Some { Campaign.kill_tick = 100; staleness = 0 };
    }
  in
  let violates c =
    List.exists
      (fun i -> Faults.is_permanent i.Faults.fault)
      c.Campaign.injections
  in
  let r = Shrink.minimize ~violates cell in
  check_bool "shrunk" true r.Shrink.shrunk;
  check_bool "kill drill dropped" true (r.Shrink.cell.Campaign.kill = None);
  match r.Shrink.cell.Campaign.injections with
  | [ i ] ->
      check_bool "the permanent fault is kept" true
        (Faults.is_permanent i.Faults.fault);
      check_bool "its stop stays infinite" true
        (i.Faults.stop_s = Float.infinity);
      check_bool "its onset is bisected toward the end" true
        (i.Faults.start_s = 11.6875)
  | l -> Alcotest.failf "%d injections left, want 1" (List.length l)

let valid_artifact_lines =
  [ "spectr-chaos-reproducer v1"; "seed 42"; "index 0"; "variant SPECTR";
    "workload x264"; "fault dropout:power@4/6" ]

let artifact_of lines = Artifact.of_string (String.concat "\n" lines ^ "\n")

let test_artifact_parse_errors () =
  (* The unmodified skeleton parses. *)
  let a = artifact_of valid_artifact_lines in
  check_bool "skeleton parses" true
    (a.Artifact.cell.Campaign.variant = Campaign.Spectr
    && a.Artifact.cell.Campaign.seed = 42L
    && a.Artifact.invariant = None && a.Artifact.digest = None);
  expect_invalid "empty input" (fun () -> Artifact.of_string "");
  expect_invalid "bad header" (fun () ->
      artifact_of ("not-a-reproducer" :: List.tl valid_artifact_lines));
  expect_invalid "missing seed" (fun () ->
      artifact_of
        (List.filter
           (fun l -> not (String.length l >= 4 && String.sub l 0 4 = "seed"))
           valid_artifact_lines));
  expect_invalid "unknown variant" (fun () ->
      artifact_of
        (List.map
           (fun l -> if l = "variant SPECTR" then "variant BOGUS" else l)
           valid_artifact_lines));
  expect_invalid "garbage fault window" (fun () ->
      artifact_of (valid_artifact_lines @ [ "fault nonsense" ]));
  expect_invalid "staleness exceeds kill tick" (fun () ->
      artifact_of (valid_artifact_lines @ [ "kill 10 20" ]));
  expect_invalid "unknown invariant name" (fun () ->
      artifact_of (valid_artifact_lines @ [ "invariant bogus" ]));
  (* Every cell runs on Campaign.phases: a reproducer that still
     carries a scenario-shape line is rejected, and the message names
     the key. *)
  match artifact_of (valid_artifact_lines @ [ "profile 5 3.5 3 4 5 16" ]) with
  | exception Invalid_argument msg ->
      check_bool "profile line is an unknown key" true
        (contains msg "unknown key \"profile\"")
  | _ -> Alcotest.fail "a profile line was accepted"

(* Node-kill campaigns: drills are pure functions of (spec, index), the
   sweep is byte-identical for any worker count, and a rebooted node
   meets the fleet admission contract — smoothed power back under its
   cap within the deadline. *)

let test_node_kill_drill_purity () =
  let spec = Node_kill.default_spec ~seed:7 ~drills:4 () in
  let a = Node_kill.drill_of_spec spec 2 in
  let b = Node_kill.drill_of_spec spec 2 in
  check_bool "equal drills" true (a = b);
  check_bool "distinct indices differ" true
    (Node_kill.drill_of_spec spec 1 <> a);
  expect_invalid "index out of range" (fun () ->
      Node_kill.drill_of_spec spec 4);
  expect_invalid "drills <= 0" (fun () ->
      Node_kill.default_spec ~drills:0 ())

let test_node_kill_recovery () =
  let spec = Node_kill.default_spec ~drills:6 () in
  let r = Node_kill.run spec in
  check_int "all drills ran" 6 (List.length r.Node_kill.r_outcomes);
  check_int "all recovered" 0 r.Node_kill.r_failed;
  List.iter
    (fun (o : Node_kill.outcome) ->
      check_bool "checkpoint taken" true o.Node_kill.o_checkpointed;
      check_bool "downtime accrued debt" true (o.Node_kill.o_debt > 0.))
    r.Node_kill.r_outcomes

let test_node_kill_determinism () =
  let spec = Node_kill.default_spec ~drills:4 () in
  let digest_with jobs =
    let pool = Spectr_exec.Pool.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Spectr_exec.Pool.shutdown pool)
      (fun () -> (Node_kill.run ~pool spec).Node_kill.r_digest)
  in
  let d1 = digest_with 1 in
  let d4 = digest_with 4 in
  check_string "digest independent of worker count" d1 d4;
  (* The default spec's digest, pinned: the node-level closed loop
     (boot warm-up, ticks, restart from checkpoint) must not move. *)
  check_string "default-spec digest pinned" "af797ea4c3e78e6c86b47234ed2f6974"
    (Node_kill.run (Node_kill.default_spec ())).Node_kill.r_digest

let () =
  Alcotest.run "spectr_chaos"
    [
      ( "campaign",
        [
          Alcotest.test_case "pure function of the seed" `Quick
            test_campaign_determinism;
          Alcotest.test_case "spec validation" `Quick
            test_campaign_validation;
          Alcotest.test_case "name round-trips" `Quick test_name_round_trips;
          Alcotest.test_case "manager catalogue" `Quick
            test_manager_catalogue;
          Alcotest.test_case "pinned seven-variant campaign" `Quick
            test_campaign_pinned;
        ] );
      ( "engine",
        [
          Alcotest.test_case "deterministic to the digest" `Quick
            test_engine_determinism;
          Alcotest.test_case "checkpoint/restore byte-identical" `Slow
            test_checkpoint_exact_resume;
          Alcotest.test_case "bounded staleness deterministic" `Quick
            test_bounded_staleness_determinism;
          Alcotest.test_case "SPECTR+R resumes at every rung" `Slow
            test_reconfig_rung_resume;
          Alcotest.test_case "checkpoint regrows and resumes" `Slow
            test_checkpoint_regrows;
          Alcotest.test_case "two restores from one checkpoint" `Quick
            test_checkpoint_restores_twice;
          Alcotest.test_case "checkpoint detached from the saver" `Quick
            test_checkpoint_detached;
          Alcotest.test_case "SPECTR+R checkpoint bound to its platform" `Quick
            test_reconfig_checkpoint_rejected_elsewhere;
          Alcotest.test_case "MM-Pow checkpoint bound to its platform" `Quick
            test_mm_checkpoint_bound_to_platform;
        ] );
      ( "reproducers",
        [
          Alcotest.test_case "shrink, serialize, replay" `Slow
            test_shrink_and_replay;
          Alcotest.test_case "shrink keeps a permanent fault" `Quick
            test_shrink_keeps_permanent;
          Alcotest.test_case "artifact parse errors" `Quick
            test_artifact_parse_errors;
        ] );
      ( "node-kill",
        [
          Alcotest.test_case "drills pure function of spec" `Quick
            test_node_kill_drill_purity;
          Alcotest.test_case "rebooted nodes meet the deadline" `Slow
            test_node_kill_recovery;
          Alcotest.test_case "digest independent of worker count" `Quick
            test_node_kill_determinism;
        ] );
    ]
