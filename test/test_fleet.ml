(* Tests for the fleet layer (Spectr_fleet): node lifecycle and
   cap/report semantics, coordinator budget invariants, placer scoring,
   arrival determinism, and the fleet engine's two load-bearing
   properties — job-count-independent digests and global-cap compliance
   where the uncoordinated baseline violates. *)

open Spectr_platform
open Spectr_fleet
module Pool = Spectr_exec.Pool

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

let with_pool ~jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let make_node ?config ?(id = 0) ?(seed = 7L) ?(workload = Benchmarks.x264) ()
    =
  Node.create ?config ~id ~seed ~workload ()

(* ------------------------------------------------------------------ *)
(* Node                                                                *)
(* ------------------------------------------------------------------ *)

let test_node_lifecycle () =
  let node = make_node ~id:3 () in
  check_string "workload" "x264" (Node.workload_name node);
  check_bool "alive at birth" true (Node.alive node);
  check_float "initial cap is TDP" 5.0 (Node.cap node);
  check_float "x264 reference" 60. (Node.qos_ref node);
  Node.warm_up node;
  for _ = 1 to 20 do
    Node.tick node ~dt:0.05
  done;
  let r = Node.report node in
  check_int "report id" 3 r.Node.r_id;
  check_bool "reported alive" true r.Node.r_alive;
  check_bool "draws power" true (r.Node.r_m.Node.r_power > 0.);
  check_bool "serves QoS" true (r.Node.r_m.Node.r_qos > 0.);
  (* report drains the epoch accumulators, refreshing the same record:
     [r] read everything it checks above, before this second call. *)
  let r2 = Node.report node in
  check_bool "report refreshed in place" true (r2 == r);
  check_float "drained power" 0. r2.Node.r_m.Node.r_power;
  check_float "drained debt" 0. r2.Node.r_m.Node.r_debt

let test_node_kill_restart () =
  let node = make_node () in
  Node.warm_up node;
  for _ = 1 to 10 do
    Node.tick node ~dt:0.05
  done;
  Node.checkpoint node;
  ignore (Node.report node);
  Node.kill node;
  check_bool "dead" false (Node.alive node);
  check_float "dead draws nothing" 0. (Node.last_true_power node);
  Node.tick node ~dt:0.05;
  Node.tick node ~dt:0.05;
  let r = Node.report node in
  check_float "dead node reports zero power" 0. r.Node.r_m.Node.r_power;
  (* A dead node accrues one second of debt per second. *)
  check_float "full debt while dead" 0.1 r.Node.r_m.Node.r_debt;
  check_int "kill counted" 1 r.Node.r_kills;
  (* kill is idempotent. *)
  Node.kill node;
  check_int "kill idempotent" 1 (Node.kills node);
  Node.restart node;
  check_bool "rebooted" true (Node.alive node);
  check_int "restart counted" 1 (Node.restarts node);
  Node.tick node ~dt:0.05;
  check_bool "serves again" true (Node.last_true_power node > 0.);
  (* restart is a no-op on a live node. *)
  Node.restart node;
  check_int "restart idempotent" 1 (Node.restarts node)

(* A node killed before its first checkpoint has nothing to restore and
   restarts cold: after the reboot it runs exactly like a node killed at
   birth, while a node that checkpointed its warm manager runs
   differently. *)
let test_node_restart_cold () =
  let after_restart ~checkpointed ticks =
    let node = make_node () in
    Node.warm_up node;
    for _ = 1 to ticks do
      Node.tick node ~dt:0.05
    done;
    if checkpointed then Node.checkpoint node;
    Node.kill node;
    Node.restart node;
    List.init 20 (fun _ ->
        Node.tick node ~dt:0.05;
        Node.last_true_power node)
  in
  let at_birth = after_restart ~checkpointed:false 0 in
  check_bool "never checkpointed restarts cold" true
    (after_restart ~checkpointed:false 30 = at_birth);
  check_bool "a checkpoint is restored" true
    (after_restart ~checkpointed:true 30 <> at_birth)

let test_node_cap_clamp () =
  let node = make_node () in
  Node.set_cap node 10.;
  check_float "clamped to TDP" 5.0 (Node.cap node);
  Node.set_cap node 0.2;
  check_float "clamped to floor" 1.0 (Node.cap node);
  Node.set_cap node 3.3;
  check_float "in-range cap" 3.3 (Node.cap node)

let test_node_work_items () =
  let node = make_node () in
  Node.add_load node ~tasks:2 ~duration_ticks:3;
  Node.add_load node ~tasks:1 ~duration_ticks:5;
  check_int "items stack" 3 (Node.background node);
  for _ = 1 to 3 do
    Node.tick node ~dt:0.05
  done;
  check_int "first item expired" 1 (Node.background node);
  for _ = 1 to 2 do
    Node.tick node ~dt:0.05
  done;
  check_int "all expired" 0 (Node.background node);
  (match Node.add_load node ~tasks:(-1) ~duration_ticks:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative tasks rejected");
  match Node.add_load node ~tasks:1 ~duration_ticks:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero duration rejected"

let test_node_items_survive_restart () =
  let node = make_node () in
  Node.add_load node ~tasks:3 ~duration_ticks:1000;
  Node.kill node;
  Node.restart node;
  (* The work queue outlives the node. *)
  check_int "items survive reboot" 3 (Node.background node)

(* End-to-end degraded-mode node: a reconfigurable node that loses a
   cluster must detect it (FDIR), hot-swap onto the degraded
   description, and report the reduced capacity to the coordinator. *)
let test_node_reconfigurable () =
  let node = Node.create ~reconfigurable:true ~id:0 ~seed:7L
      ~workload:Benchmarks.x264 () in
  let handle =
    match Node.reconfig_handle node with
    | Some h -> h
    | None -> Alcotest.fail "reconfigurable node must expose a handle"
  in
  check_bool "default nodes have no handle" true
    (Node.reconfig_handle (make_node ()) = None);
  (* Transient kinds are not permanent faults. *)
  (match Node.inject_permanent node (Faults.Dropout Faults.Power) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "transient kind must be rejected");
  Node.warm_up node;
  let r0 = Node.report node in
  check_float "healthy capacity is TDP" 5.0 r0.Node.r_m.Node.r_max_power;
  check_bool "boots nominal" true
    (Spectr.Spectr_manager.Reconfig.status handle
    = Spectr.Spectr_manager.Reconfig.Nominal);
  Node.inject_permanent node (Faults.Cluster_dead 1);
  (* Detection needs 3.0 s of persistent residuals, plus the bounded
     swap window; 15 s of wall time is ample. *)
  for _ = 1 to 300 do
    Node.tick node ~dt:0.05
  done;
  check_bool "ends reconfigured" true
    (Spectr.Spectr_manager.Reconfig.status handle
    = Spectr.Spectr_manager.Reconfig.Reconfigured);
  check_bool "at least one hot-swap" true
    (Spectr.Spectr_manager.Reconfig.reconfigurations handle >= 1);
  check_bool "cluster 1 excluded" true
    (List.mem 1 (Spectr.Spectr_manager.Reconfig.excluded_clusters handle));
  let r1 = Node.report node in
  check_bool
    (Printf.sprintf "degraded capacity shrinks (%.3f)" r1.Node.r_m.Node.r_max_power)
    true
    (r1.Node.r_m.Node.r_max_power < 5.0 && r1.Node.r_m.Node.r_max_power >= 1.0);
  check_bool "still serving QoS degraded" true (r1.Node.r_m.Node.r_qos > 0.);
  (* A restart is a hardware swap: the replacement boots on the healthy
     description with full capacity — even though the degraded manager
     checkpointed before it died.  Its manager is the one it had,
     restored to its boot state in place, so the handle survives the
     reboot and the replacement runs exactly like a same-seed node
     killed at birth (the reconfigurable counterpart of
     [test_node_restart_cold]). *)
  let after_restart node =
    Node.kill node;
    Node.restart node;
    List.init 20 (fun _ ->
        Node.tick node ~dt:0.05;
        Node.last_true_power node)
  in
  Node.checkpoint node;
  let replaced = after_restart node in
  let h2 =
    match Node.reconfig_handle node with
    | Some h -> h
    | None -> Alcotest.fail "a restarted reconfigurable node keeps its handle"
  in
  check_bool "restart keeps the same handle" true (h2 == handle);
  check_bool "replacement boots nominal" true
    (Spectr.Spectr_manager.Reconfig.status h2
    = Spectr.Spectr_manager.Reconfig.Nominal);
  let r2 = Node.report node in
  check_float "replacement reports full capacity" 5.0 r2.Node.r_m.Node.r_max_power;
  let at_birth =
    after_restart
      (Node.create ~reconfigurable:true ~id:0 ~seed:7L
         ~workload:Benchmarks.x264 ())
  in
  check_bool "replacement runs like a node killed at birth" true
    (replaced = at_birth)

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

let report ?(alive = true) ?(max_power = 5.) ?(cap = 5.) ?(power = 2.)
    ?(debt = 0.) id =
  {
    Node.r_id = id;
    r_alive = alive;
    r_background = 0;
    r_workload = "x264";
    r_kills = 0;
    r_restarts = 0;
    r_m =
      {
        Node.r_max_power = max_power;
        r_cap = cap;
        r_power = power;
        r_sensor_power = power;
        r_qos = 50.;
        r_qos_ref = 60.;
        r_debt = debt;
        r_total_debt = debt;
      };
  }

let config = Node.default_config
let sum = Array.fold_left ( +. ) 0.

let test_coordinator_uncoordinated () =
  let caps =
    Coordinator.rebudget ~policy:Coordinator.Uncoordinated ~global_cap:10.
      ~config ~epoch_s:1.
      (Array.init 4 (fun i -> report i))
  in
  Array.iter (fun c -> check_float "TDP each" config.Node.node_tdp c) caps

let test_coordinator_static () =
  let caps =
    Coordinator.rebudget ~policy:Coordinator.Static_split ~global_cap:8.
      ~config ~epoch_s:1.
      (Array.init 4 (fun i -> report i))
  in
  let each = 8. *. (1. -. Coordinator.default_headroom) /. 4. in
  Array.iter (fun c -> check_float "even split" each c) caps

let test_coordinator_waterfill_budget () =
  (* Scarce budget: allocations respect [floor, tdp] and sum to at most
     the guardbanded budget. *)
  let reports =
    Array.init 8 (fun i ->
        report ~power:(1. +. (0.4 *. float_of_int i))
          ~debt:(if i mod 2 = 0 then 0.5 else 0.)
          i)
  in
  let global_cap = 14. in
  let caps =
    Coordinator.rebudget ~policy:Coordinator.Water_filling ~global_cap ~config
      ~epoch_s:1. reports
  in
  let budget = global_cap *. (1. -. Coordinator.default_headroom) in
  check_bool "sums under the guardbanded budget" true (sum caps <= budget);
  Array.iter
    (fun c ->
      check_bool "within [floor, tdp]" true
        (c >= config.Node.cap_floor && c <= config.Node.node_tdp))
    caps;
  (* A starved heavy node outranks a satisfied light one. *)
  check_bool "debt-weighted demand orders caps" true (caps.(6) > caps.(1))

let test_coordinator_waterfill_abundant () =
  (* Abundant budget: every node simply gets its demand. *)
  let reports = Array.init 4 (fun i -> report ~power:1.0 ~debt:0. i) in
  let caps =
    Coordinator.rebudget ~policy:Coordinator.Water_filling ~global_cap:1000.
      ~config ~epoch_s:1. reports
  in
  Array.iter (fun c -> check_float "demand = 1.05 x draw" 1.05 c) caps

let test_coordinator_waterfill_infeasible () =
  (* Budget below n x floor: every node holds the floor. *)
  let reports = Array.init 4 (fun i -> report i) in
  let caps =
    Coordinator.rebudget ~policy:Coordinator.Water_filling ~global_cap:2.
      ~config ~epoch_s:1. reports
  in
  Array.iter (fun c -> check_float "floor each" config.Node.cap_floor c) caps

let test_coordinator_dead_node_excluded () =
  let reports =
    [| report 0; report ~alive:false 1; report ~power:4. ~debt:1. 2 |]
  in
  let caps =
    Coordinator.rebudget ~policy:Coordinator.Water_filling ~global_cap:7.
      ~config ~epoch_s:1. reports
  in
  check_float "dead node is excluded" 0. caps.(1);
  check_bool "freed budget flows to the starved node" true
    (caps.(2) > caps.(0));
  let static =
    Coordinator.rebudget ~policy:Coordinator.Static_split ~global_cap:7.
      ~config ~epoch_s:1. reports
  in
  check_float "static split also excludes the dead node" 0. static.(1);
  check_float "static share divides among survivors only"
    (7. *. (1. -. Coordinator.default_headroom) /. 2.)
    static.(0)

let test_coordinator_kill_redistributes_within_epoch () =
  (* Satellite regression: killing a node must free its budget to the
     survivors in the very next rebudget call — one epoch, not a decay.
     Scarce budget so the water level binds and the redistribution is
     visible in the surviving nodes' caps. *)
  let mk alive = [| report ~power:4. 0; report ~power:4. ~alive 1 |] in
  let global_cap = 6. in
  let before =
    Coordinator.rebudget ~policy:Coordinator.Water_filling ~global_cap
      ~config ~epoch_s:1. (mk true)
  in
  let after =
    Coordinator.rebudget ~policy:Coordinator.Water_filling ~global_cap
      ~config ~epoch_s:1. (mk false)
  in
  let budget = global_cap *. (1. -. Coordinator.default_headroom) in
  check_bool "scarce before the kill" true (before.(0) < 4.);
  check_float "dead node allocated nothing" 0. after.(1);
  check_bool "survivor's cap grows in the same epoch" true
    (after.(0) > before.(0) +. 0.5);
  check_bool "still under the guardbanded budget" true (sum after <= budget)

let test_coordinator_degraded_capacity_capped () =
  (* A reconfigured node advertises a reduced r_max_power; its cap must
     not exceed it even when the budget is abundant, and the headroom it
     frees must reach the starved healthy node under scarcity. *)
  let abundant =
    Coordinator.rebudget ~policy:Coordinator.Water_filling ~global_cap:1000.
      ~config ~epoch_s:1.
      [| report ~max_power:2.5 ~power:4. ~debt:1. 0 |]
  in
  check_bool "abundant cap stays at degraded capacity" true
    (abundant.(0) <= 2.5 +. 1e-9);
  let reports =
    [|
      report ~max_power:2.0 ~power:4. ~debt:1. 0;
      report ~power:4. ~debt:1. 1;
    |]
  in
  let caps =
    Coordinator.rebudget ~policy:Coordinator.Water_filling ~global_cap:7.
      ~config ~epoch_s:1. reports
  in
  check_bool "degraded node capped at its capacity" true
    (caps.(0) <= 2.0 +. 1e-9);
  check_bool "healthy node takes the freed headroom" true
    (caps.(1) > caps.(0));
  let static =
    Coordinator.rebudget ~policy:Coordinator.Static_split ~global_cap:11.
      ~config ~epoch_s:1. reports
  in
  check_bool "static split respects capacity too" true
    (static.(0) <= 2.0 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Placer                                                              *)
(* ------------------------------------------------------------------ *)

let item ?(tasks = 1) ?(duration = 100) kind =
  { Arrivals.a_tasks = tasks; a_duration = duration; a_kind = kind }

let test_placer_affinity () =
  let reports =
    [|
      (let r = report 0 in
       { r with Node.r_workload = "canneal" });
      (let r = report 1 in
       { r with Node.r_workload = "x264" });
    |]
  in
  match Placer.assign ~reports [ item "x264" ] with
  | [ (i, _) ] -> check_int "prefers the affine node" 1 i
  | _ -> Alcotest.fail "one assignment"

let test_placer_spreads_burst () =
  (* Identical nodes: the first item takes index 0 (lowest-index tie
     break); pending load then pushes the second item to index 1. *)
  let reports = Array.init 2 (fun i -> report i) in
  match Placer.assign ~reports [ item "x264"; item "x264" ] with
  | [ (a, _); (b, _) ] ->
      check_int "tie-break lowest index" 0 a;
      check_int "burst spreads" 1 b
  | _ -> Alcotest.fail "two assignments"

let test_placer_skips_dead_and_indebted () =
  let reports =
    [|
      report ~alive:false 0; report ~debt:5. 1; report 2;
    |]
  in
  (match Placer.assign ~reports [ item "x264" ] with
  | [ (i, _) ] -> check_int "avoids dead and indebted" 2 i
  | _ -> Alcotest.fail "one assignment");
  (* Every node dead: the item is dropped, not misplaced. *)
  let dead = Array.init 2 (fun i -> report ~alive:false i) in
  check_bool "all dead drops the item" true
    (Placer.assign ~reports:dead [ item "x264" ] = [])

(* ------------------------------------------------------------------ *)
(* Arrivals                                                            *)
(* ------------------------------------------------------------------ *)

let test_arrivals_deterministic () =
  let a = Arrivals.generate ~seed:9 ~epoch:4 ~rate:5. in
  let b = Arrivals.generate ~seed:9 ~epoch:4 ~rate:5. in
  check_bool "same (seed, epoch) -> same items" true (a = b);
  check_int "integer rate arrives exactly" 5 (List.length a);
  let c = Arrivals.generate ~seed:9 ~epoch:5 ~rate:5. in
  check_bool "epochs draw distinct streams" true (a <> c);
  List.iter
    (fun it ->
      check_bool "valid tasks" true (it.Arrivals.a_tasks >= 1);
      check_bool "valid duration" true (it.Arrivals.a_duration >= 1);
      check_bool "known workload" true
        (Benchmarks.by_name it.Arrivals.a_kind <> None))
    a

(* ------------------------------------------------------------------ *)
(* Fleet engine                                                        *)
(* ------------------------------------------------------------------ *)

let small_spec =
  {
    Fleet.default_spec with
    Fleet.nodes = 12;
    epochs = 5;
    ticks_per_epoch = 20;
    global_cap = 12. *. 1.5;
    (* 3 shards of 4 and one of... 12/5 -> shards of 5,5,2: uneven on
       purpose, the partition must still be job-count independent. *)
    shard_size = 5;
    kill_rate = 1.0;
    down_epochs = 1;
    arrival_rate = 2.;
  }

let test_fleet_determinism_across_jobs () =
  let r1 = with_pool ~jobs:1 (fun pool -> Fleet.run ~pool small_spec) in
  let r4 = with_pool ~jobs:4 (fun pool -> Fleet.run ~pool small_spec) in
  check_string "digest job-count independent" r1.Fleet.digest r4.Fleet.digest;
  check_float "peak identical" r1.Fleet.peak_fleet_power
    r4.Fleet.peak_fleet_power;
  check_float "debt identical" r1.Fleet.total_debt r4.Fleet.total_debt;
  check_int "violations identical" r1.Fleet.violation_ticks
    r4.Fleet.violation_ticks;
  (* And a rerun on the same pool size reproduces exactly. *)
  let r1' = with_pool ~jobs:1 (fun pool -> Fleet.run ~pool small_spec) in
  check_string "rerun reproduces" r1.Fleet.digest r1'.Fleet.digest

(* The default spec's digest, pinned: every node tick goes through the
   scenario's closed loop, and no report may move. *)
let test_fleet_default_digest () =
  check_string "default-spec digest" "fae46f65cffebeb0512acf25005be1e5"
    (Fleet.run Fleet.default_spec).Fleet.digest

(* Three descriptions built on the pool, kills on so that [Node.restart]
   runs too.  The 4-job run goes first, so it is the one that designs
   and synthesizes on first use. *)
let test_fleet_mixed_determinism () =
  let spec =
    {
      small_spec with
      Fleet.platforms =
        Platform_desc.[| exynos5422; pixel8pro; k_cluster 3 |];
    }
  in
  let r4 = with_pool ~jobs:4 (fun pool -> Fleet.run ~pool spec) in
  (* Event ids follow intern order, and the 4-job run is the first use of
     pixel8pro's prime and k3's commands in this process: [Fleet.run]
     must have interned them in platform order before building nodes. *)
  let ids p =
    let fam = Spectr.Events.for_platform p in
    List.concat_map
      (fun i ->
        Spectr_automata.Event.
          [ id (Spectr.Events.increase fam i); id (Spectr.Events.decrease fam i) ])
      (List.init (Platform_desc.num_clusters p) Fun.id)
  in
  check_bool "pixel8pro commands interned before k3's" true
    (List.fold_left max min_int (ids Platform_desc.pixel8pro)
    < List.fold_left min max_int (ids (Platform_desc.k_cluster 3)));
  let r1 = with_pool ~jobs:1 (fun pool -> Fleet.run ~pool spec) in
  check_string "mixed digest job-count independent" r1.Fleet.digest
    r4.Fleet.digest;
  check_bool "nodes were restarted" true (r1.Fleet.restarts > 0);
  check_int "restarts identical" r1.Fleet.restarts r4.Fleet.restarts

let test_fleet_compliance_vs_baseline () =
  let spec policy = { small_spec with Fleet.kill_rate = 0.; policy } in
  let unco =
    with_pool ~jobs:1 (fun pool ->
        Fleet.run ~pool (spec Coordinator.Uncoordinated))
  in
  let water =
    with_pool ~jobs:1 (fun pool ->
        Fleet.run ~pool (spec Coordinator.Water_filling))
  in
  check_bool "baseline violates the global cap" true
    (unco.Fleet.violation_ticks > 0);
  check_int "coordinator holds the global cap" 0 water.Fleet.violation_ticks;
  check_bool "coordinated peak under the cap" true
    (water.Fleet.peak_fleet_power
    <= small_spec.Fleet.global_cap *. Spectr.Metrics.power_allowance)

let test_fleet_kills_and_restarts () =
  let r = with_pool ~jobs:2 (fun pool -> Fleet.run ~pool small_spec) in
  check_bool "kill plan fired" true (r.Fleet.kills > 0);
  check_bool "downed nodes rebooted" true (r.Fleet.restarts > 0);
  check_bool "restarts bounded by kills" true
    (r.Fleet.restarts <= r.Fleet.kills);
  check_bool "deaths cost QoS" true (r.Fleet.qos_attainment < 1.);
  check_bool "placements happened" true (r.Fleet.placements > 0);
  check_int "tick accounting" (5 * 20) r.Fleet.total_ticks

let test_fleet_validation () =
  match
    with_pool ~jobs:1 (fun pool ->
        Fleet.run ~pool { small_spec with Fleet.nodes = 0 })
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero nodes rejected"

let test_fleet_obs_counters () =
  (* With instrumentation enabled, the engine surfaces its counters;
     the run itself must not depend on them. *)
  Fun.protect
    ~finally:(fun () ->
      Spectr_obs.disable ();
      Spectr_obs.reset ())
    (fun () ->
      Spectr_obs.reset ();
      Spectr_obs.enable ();
      let r = with_pool ~jobs:1 (fun pool -> Fleet.run ~pool small_spec) in
      let v name =
        match Spectr_obs.Counters.by_name name with
        | Some v -> v
        | None -> Alcotest.fail (name ^ " not registered")
      in
      check_int "epoch counter" small_spec.Fleet.epochs (v "fleet.epochs");
      check_int "tick counter" small_spec.Fleet.ticks_per_epoch
        (v "fleet.ticks" / small_spec.Fleet.epochs);
      check_int "kill counter" r.Fleet.kills (v "fleet.kills");
      check_int "restart counter" r.Fleet.restarts (v "fleet.restarts");
      check_int "placement counter" r.Fleet.placements (v "fleet.placements");
      check_bool "rebudget moves counted" true
        (v "fleet.rebudget_moves" > 0))

(* Every supervisor is verified once, when it is synthesized.  After the
   synthesis cache is cleared, a 32-node exynos5422/pixel8pro fleet
   whose nodes are killed and restarted (each build and restart asks for
   its supervisor again) verifies exactly two supervisors, one per
   description.  A cache hit verifies nothing; a cleared cache
   synthesizes and verifies again. *)
let test_fleet_verifies_once () =
  Fun.protect
    ~finally:(fun () ->
      Spectr_obs.disable ();
      Spectr_obs.reset ())
    (fun () ->
      Spectr_exec.Synth_cache.clear ();
      Spectr_obs.reset ();
      Spectr_obs.enable ();
      let verified () =
        Option.value ~default:0
          (Spectr_obs.Counters.by_name "synth_cache.verifications")
      in
      let spec =
        {
          small_spec with
          Fleet.nodes = 32;
          global_cap = 32. *. 1.5;
          shard_size = 8;
          platforms = Platform_desc.[| exynos5422; pixel8pro |];
        }
      in
      let r = with_pool ~jobs:2 (fun pool -> Fleet.run ~pool spec) in
      check_bool "nodes killed" true (r.Fleet.kills > 0);
      check_bool "nodes restarted" true (r.Fleet.restarts > 0);
      check_int "fleet verifications" 2 (verified ());
      ignore (Spectr.Supervisor.synthesize ~platform:Platform_desc.pixel8pro ());
      check_int "a hit verifies nothing" 2 (verified ());
      Spectr_exec.Synth_cache.clear ();
      ignore (Spectr.Supervisor.synthesize ~platform:Platform_desc.pixel8pro ());
      check_int "a cleared cache verifies again" 3 (verified ()))

(* Bytes promoted to the major heap per node-epoch: a 64-node
   exynos5422/pixel8pro fleet on a 1-job pool, so every minor
   collection falls at the same allocation and the count is
   deterministic.  The 60-epoch run minus the 20-epoch run cancels
   construction and boot.

   Steady state (no kills): an epoch that writes its checkpoints,
   reports and caps in place, on nodes whose long-lived records keep
   their per-tick floats flat, promotes only what is live at a minor
   collection: 1.21 B (2.34 B when the 2.60 B ceiling was set 10 %
   above it).  While each checkpoint was marshalled from a fresh copy
   of the manager's state it read 4.54 B; storing the supervisor's and
   the heartbeat monitor's floats and the node's cap as boxes in mixed
   records read 18.75 B (19.68 B when this gate went in), and a fresh
   marshalled checkpoint and report record per node per epoch read
   139.78 B.

   With restarts (one kill per epoch): a restart restores the node's
   checkpoint into the manager it already has and builds only a new
   SoC and heartbeat monitor: 17.65 B, the ceiling 10 % above.  While
   every restart built a new manager too it read 66.7 B. *)
let test_fleet_promotion_ratchet () =
  let spec ~kill_rate epochs =
    {
      Fleet.default_spec with
      Fleet.nodes = 64;
      epochs;
      ticks_per_epoch = 5;
      kill_rate;
      platforms = Platform_desc.[| exynos5422; pixel8pro |];
    }
  in
  with_pool ~jobs:1 (fun pool ->
      ignore (Fleet.run ~pool (spec ~kill_rate:0. 2) : Fleet.result);
      let promoted () = (Gc.quick_stat ()).Gc.promoted_words in
      (* A full major collection first: a major cycle ending inside the
         window forces a minor collection, so the window must start at
         the same point of the major cycle whatever ran before it. *)
      let promoted ~kill_rate epochs =
        Gc.full_major ();
        let p0 = promoted () in
        ignore (Fleet.run ~pool (spec ~kill_rate epochs) : Fleet.result);
        promoted () -. p0
      in
      List.iter
        (fun (label, kill_rate, ceiling) ->
          let short = promoted ~kill_rate 20 in
          let long = promoted ~kill_rate 60 in
          let per_node_epoch =
            (long -. short) *. float_of_int (Sys.word_size / 8) /. (40. *. 64.)
          in
          check_bool
            (Printf.sprintf "%s: %.2f B promoted per node-epoch (ceiling %.2f)"
               label per_node_epoch ceiling)
            true
            (per_node_epoch <= ceiling))
        [ ("steady", 0., 2.60); ("with restarts", 1., 19.41) ])

let () =
  Alcotest.run "fleet"
    [
      ( "node",
        [
          Alcotest.test_case "lifecycle and reporting" `Quick
            test_node_lifecycle;
          Alcotest.test_case "kill and restart" `Quick test_node_kill_restart;
          Alcotest.test_case "restart before a checkpoint is cold" `Quick
            test_node_restart_cold;
          Alcotest.test_case "cap clamping" `Quick test_node_cap_clamp;
          Alcotest.test_case "work items" `Quick test_node_work_items;
          Alcotest.test_case "reconfigurable degraded capacity" `Quick
            test_node_reconfigurable;
          Alcotest.test_case "items survive restart" `Quick
            test_node_items_survive_restart;
        ] );
      ( "coordinator",
        [
          Alcotest.test_case "uncoordinated" `Quick
            test_coordinator_uncoordinated;
          Alcotest.test_case "static split" `Quick test_coordinator_static;
          Alcotest.test_case "water-filling budget" `Quick
            test_coordinator_waterfill_budget;
          Alcotest.test_case "abundant budget" `Quick
            test_coordinator_waterfill_abundant;
          Alcotest.test_case "infeasible budget" `Quick
            test_coordinator_waterfill_infeasible;
          Alcotest.test_case "dead node excluded" `Quick
            test_coordinator_dead_node_excluded;
          Alcotest.test_case "kill redistributes within one epoch" `Quick
            test_coordinator_kill_redistributes_within_epoch;
          Alcotest.test_case "degraded capacity capped" `Quick
            test_coordinator_degraded_capacity_capped;
        ] );
      ( "placer",
        [
          Alcotest.test_case "affinity" `Quick test_placer_affinity;
          Alcotest.test_case "burst spreading" `Quick
            test_placer_spreads_burst;
          Alcotest.test_case "dead and indebted skipped" `Quick
            test_placer_skips_dead_and_indebted;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "deterministic stream" `Quick
            test_arrivals_deterministic;
        ] );
      ( "engine",
        [
          Alcotest.test_case "determinism across jobs" `Slow
            test_fleet_determinism_across_jobs;
          Alcotest.test_case "default spec digest pinned" `Slow
            test_fleet_default_digest;
          Alcotest.test_case "mixed platforms across jobs" `Slow
            test_fleet_mixed_determinism;
          Alcotest.test_case "compliance vs baseline" `Slow
            test_fleet_compliance_vs_baseline;
          Alcotest.test_case "kills and restarts" `Slow
            test_fleet_kills_and_restarts;
          Alcotest.test_case "spec validation" `Quick test_fleet_validation;
          Alcotest.test_case "obs counters" `Slow test_fleet_obs_counters;
          Alcotest.test_case "promotion ratchet" `Slow
            test_fleet_promotion_ratchet;
          Alcotest.test_case "supervisors verified once" `Slow
            test_fleet_verifies_once;
        ] );
    ]
