(* Tests for the SPECTR core: the case-study automata, supervisor
   synthesis and verification, the runtime supervisor (against mock
   commands), the design flow, the four resource managers and the
   three-phase evaluation scenario.

   The scenario tests assert the paper's qualitative claims (who wins,
   in which phase, by direction) rather than absolute numbers. *)

open Spectr_automata
open Spectr_platform
open Spectr

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let test_events_controllability () =
  check_bool "critical uncontrollable" false
    (Event.is_controllable Events.critical);
  check_bool "switchPower controllable" true
    (Event.is_controllable Events.switch_power);
  check_bool "holdBudget controllable" true
    (Event.is_controllable Events.hold_budget)

let exynos_family () = Events.for_platform Platform_desc.exynos5422

let test_events_lookup () =
  (* The exynos5422 alphabet: the 13 platform-independent constants plus
     the two-cluster budget-command family, 17 distinct events — exactly
     the alphabet the synthesized supervisor carries. *)
  let fam = exynos_family () in
  let alphabet =
    Event.set_of_list
      ([
         Events.critical; Events.above_target; Events.below_target;
         Events.safe_power; Events.qos_met; Events.qos_not_met;
         Events.power_safe_qos_met; Events.power_safe_qos_not_met;
         Events.switch_power; Events.switch_qos;
         Events.decrease_critical_power; Events.control_power;
         Events.hold_budget;
       ]
      @ List.concat_map
          (fun i -> [ Events.increase fam i; Events.decrease fam i ])
          [ 0; 1 ])
  in
  check_int "alphabet size" 17 (Event.Set.cardinal alphabet);
  let sup, _ = Supervisor.synthesize () in
  check_bool "supervisor alphabet" true
    (Event.Set.equal alphabet (Automaton.alphabet sup))

(* ------------------------------------------------------------------ *)
(* Plant model and spec                                                *)
(* ------------------------------------------------------------------ *)

let test_plant_qos_management_shape () =
  let a = Plant_model.qos_management in
  check_int "3 states" 3 (Automaton.num_states a);
  check_string "initial" "Eval" (Automaton.initial a);
  check_bool "Eval marked" true (Automaton.is_marked a "Eval");
  check_bool "Raise not marked" false (Automaton.is_marked a "Raise")

let test_plant_power_capping_shape () =
  let a = Plant_model.power_capping in
  check_int "7 states" 7 (Automaton.num_states a);
  (* emergency path: critical -> switch -> capped -> safe -> restore -> qos *)
  match
    Automaton.trace a
      [
        Events.critical;
        Events.switch_power;
        Events.safe_power;
        Events.switch_qos;
      ]
  with
  | Some s -> check_string "returns to Safe" "Safe" s
  | None -> Alcotest.fail "emergency round trip must be defined"

let test_plant_composed () =
  let c = Plant_model.composed () in
  check_bool "composition nonempty" true (Automaton.num_states c > 3);
  check_string "ideal initial" "Eval.Safe" (Automaton.initial c);
  (* only (Eval, Safe) is marked *)
  check_int "single marked" 1 (List.length (Automaton.marked c))

let test_spec_shape () =
  let s = Spec.three_band in
  check_bool "threshold forbidden" true (Automaton.is_forbidden s "Threshold");
  check_string "initial" "Uncapped" (Automaton.initial s);
  (* three consecutive criticals hit the forbidden state *)
  match Automaton.trace s [ Events.critical; Events.critical; Events.critical ] with
  | Some st -> check_string "threshold" "Threshold" st
  | None -> Alcotest.fail "critical chain defined in spec"

let test_spec_forbids_increase_when_capped () =
  let s = Spec.three_band in
  match
    Automaton.trace s
      [
        Events.critical;
        Events.switch_power;
        Events.increase (exynos_family ()) 0;
      ]
  with
  | Some st -> check_string "forbidden" "Threshold" st
  | None -> Alcotest.fail "transition defined (to the forbidden state)"

(* ------------------------------------------------------------------ *)
(* Synthesis                                                           *)
(* ------------------------------------------------------------------ *)

let test_synthesize_properties () =
  let sup, stats = Supervisor.synthesize () in
  let plant = Plant_model.composed () in
  check_bool "nonblocking" true (Verify.is_nonblocking sup);
  check_bool "controllable" true (Verify.is_controllable ~plant ~supervisor:sup);
  check_bool "pruned forbidden product states" true
    (stats.Synthesis.removed_forbidden > 0);
  check_bool "supervisor nonempty" true (Automaton.num_states sup > 0);
  check_bool "smaller than raw product" true
    (Automaton.num_states sup < stats.Synthesis.product_states)

let test_synthesized_supervisor_disables_increase_when_capped () =
  let sup, _ = Supervisor.synthesize () in
  (* Walk into capped mode, then check increase events are not enabled. *)
  match
    Automaton.trace sup
      [ Events.qos_not_met; Events.critical; Events.switch_power ]
  with
  | None -> Alcotest.fail "capped mode reachable"
  | Some st ->
      let enabled = Automaton.enabled sup st in
      check_bool "increaseBigPower disabled" false
        (List.exists (fun e -> Event.name e = "increaseBigPower") enabled)

let test_synthesized_supervisor_can_recover () =
  let sup, _ = Supervisor.synthesize () in
  (* From capped mode, safePower then switchQoS must lead back to a state
     where the ideal state is reachable. *)
  match
    Automaton.trace sup
      [
        Events.qos_not_met;
        Events.critical;
        Events.switch_power;
        Events.safe_power;
        Events.switch_qos;
      ]
  with
  | None -> Alcotest.fail "recovery path exists"
  | Some st ->
      check_bool "back in an uncapped state" true
        (String.length st >= 4 && String.sub st 0 4 <> "Cap")

let test_supcon_pins_case_study () =
  (* The 21-state case-study supervisor must be byte-identical (digest
     and stats) to the independent sequential oracle's. *)
  let plant = Plant_model.composed () in
  let spec = Spec.three_band in
  match (Supcon_oracle.supcon ~plant ~spec, Synthesis.supcon ~plant ~spec) with
  | Ok (sup_oracle, stats_oracle), Ok (sup, stats) ->
      check_int "case-study supervisor is the 21-state machine" 21
        (Automaton.num_states sup_oracle);
      check_string "digest identical"
        (Automaton.structural_digest sup_oracle)
        (Automaton.structural_digest sup);
      check_bool "stats identical" true (stats_oracle = stats)
  | _ -> Alcotest.fail "case-study supervisor exists"

(* ------------------------------------------------------------------ *)
(* Description-driven synthesis: N-cluster platforms                   *)
(* ------------------------------------------------------------------ *)

let test_platform_synthesis_legal () =
  List.iter
    (fun platform ->
      let name = Platform_desc.name platform in
      let sup, stats = Supervisor.synthesize ~platform () in
      let plant = Plant_model.composed_for platform in
      check_bool (name ^ " nonblocking") true (Verify.is_nonblocking sup);
      check_bool (name ^ " controllable") true
        (Verify.is_controllable ~plant ~supervisor:sup);
      check_bool (name ^ " nonempty") true (Automaton.num_states sup > 0);
      check_bool (name ^ " no states invented") true
        (Automaton.num_states sup <= stats.Spectr_automata.Synthesis.product_states);
      (* Every cluster's budget-command family must survive synthesis:
         a supervisor that lost a cluster's increase or decrease event
         could never regulate that cluster again. *)
      let fam = Events.for_platform platform in
      let alphabet = Automaton.alphabet sup in
      for i = 0 to Platform_desc.num_clusters platform - 1 do
        check_bool
          (Printf.sprintf "%s: increase c%d in alphabet" name i)
          true
          (Event.Set.mem (Events.increase fam i) alphabet);
        check_bool
          (Printf.sprintf "%s: decrease c%d in alphabet" name i)
          true
          (Event.Set.mem (Events.decrease fam i) alphabet)
      done)
    [
      Platform_desc.pixel8pro;
      Platform_desc.k_cluster 3;
      Platform_desc.k_cluster 6;
    ]

(* Warm construction reuses the per-description plant: equal
   descriptions, however built, get the one physical automaton, and
   warm supervisors add no synthesis-cache entries. *)
let test_plant_memo_identity () =
  let a = Plant_model.composed_for Platform_desc.pixel8pro in
  check_bool "twice: physically equal" true
    (a == Plant_model.composed_for Platform_desc.pixel8pro);
  let k3 = Plant_model.composed_for (Platform_desc.k_cluster 3) in
  check_bool "two k_cluster 3 values: physically equal" true
    (k3 == Plant_model.composed_for (Platform_desc.k_cluster 3));
  check_bool "composed () is the exynos product" true
    (Plant_model.composed () == Plant_model.composed_for Platform_desc.exynos5422);
  let commands =
    { Supervisor.switch_gains = (fun _ -> ()); set_power_ref = (fun _ _ -> ()) }
  in
  let create () =
    ignore
      (Supervisor.create ~platform:(Platform_desc.k_cluster 3) ~commands
         ~envelope:2.0 ()
        : Supervisor.t)
  in
  create ();
  (* Every miss installs one cache entry. *)
  let _, misses = Spectr_exec.Synth_cache.stats () in
  for _ = 1 to 100 do
    create ()
  done;
  check_int "no synth cache entry added by 100 warm creates" misses
    (snd (Spectr_exec.Synth_cache.stats ()))

(* The per-cluster command families are minted through the interner:
   exynos5422's family carries the paper's four budget commands, and
   pixel8pro's names follow the increase<Name>Power scheme. *)
let test_platform_event_families () =
  let ex = exynos_family () in
  List.iter
    (fun (what, e, expected) -> check_string what expected (Event.name e))
    [
      ("exynos increase c0", Events.increase ex 0, "increaseBigPower");
      ("exynos decrease c0", Events.decrease ex 0, "decreaseBigPower");
      ("exynos increase c1", Events.increase ex 1, "increaseLittlePower");
      ("exynos decrease c1", Events.decrease ex 1, "decreaseLittlePower");
    ];
  check_bool "controllable" true (Event.is_controllable (Events.increase ex 0));
  let px = Events.for_platform Platform_desc.pixel8pro in
  List.iteri
    (fun i expected ->
      check_string
        (Printf.sprintf "pixel8pro increase c%d name" i)
        expected
        (Event.name (Events.increase px i)))
    [ "increaseLittlePower"; "increaseBigPower"; "increasePrimePower" ];
  (* Equal names intern to one event: the minted per-cluster command is
     the interner's value for its name. *)
  check_bool "increasePrimePower is the minted event" true
    (Events.increase px 2 == Event.controllable "increasePrimePower");
  check_bool "shared cluster names share events" true
    (Events.increase px 1 == Events.increase ex 0)

(* Event ids fix CSR row order and supervisor state numbering, so the
   exynos5422 alphabet's intern order shows in every structural digest:
   the budget commands must intern in the paper's order, before
   [decreaseCriticalPower], whenever a family is first built. *)
let test_exynos_structural_digests () =
  let d = Platform_desc.exynos5422 in
  let sup, _ = Supervisor.synthesize () in
  List.iter
    (fun (what, a, expected) ->
      check_string what expected (Automaton.structural_digest a))
    [
      ("spec", Spec.of_platform d, "5c182379366fdc81aa9fa8193ac7bd9c");
      ("plant", Plant_model.composed_for d, "4f33e65698aed8b96c31023eaeeda7f0");
      ("supervisor", sup, "ad75e9ab4eb12336132bf62075a69f31");
      ( "closed loop",
        Verify.closed_loop ~plant:(Plant_model.composed_for d) ~supervisor:sup,
        "1bfcbcf3103ec4bf972165628b359d9f" );
    ]

(* The same three models of the two other built-in shapes, pinned so a
   change to the automaton core shows on a three-cluster and a generated
   four-cluster platform too.  Event ids order CSR rows, so the two
   command families are minted here, at module initialization: a k3 or
   k2 test running first would otherwise intern k4's first commands
   ahead of the rest and change its digests. *)
let platform_pins = [ Platform_desc.pixel8pro; Platform_desc.k_cluster 4 ]
let () = List.iter (fun d -> ignore (Events.for_platform d)) platform_pins

let test_platform_structural_digests () =
  List.iter2
    (fun d pins ->
      let sup, _ = Supervisor.synthesize ~platform:d () in
      List.iter2
        (fun (what, a) expected ->
          check_string
            (Platform_desc.name d ^ " " ^ what)
            expected (Automaton.structural_digest a))
        [
          ("spec", Spec.of_platform d);
          ("plant", Plant_model.composed_for d);
          ("supervisor", sup);
        ]
        pins)
    platform_pins
    [
      [
        "f612cb58108836221a8da55fe8685866";
        "fbb577158a34037b83e63081ad9f2505";
        "c91ca129500e44039ffd32b86a652d8d";
      ];
      [ "9b5f0103bdf3fadee45b695ff371ade5"; "0d3d4a2a394bc4e7b98717411ed8967b"; "740db58d1de8123533c65ae5c0e5e4cb" ];
    ]

(* Run a pixel8pro supervisor through miss, surplus, emergency and
   recovery, and pin the per-cluster command flow: every cluster's
   reference is seeded at create, the host budget moves on QoS
   error, and every reference stays positive and finite throughout. *)
let test_platform_event_flow () =
  let platform = Platform_desc.pixel8pro in
  let k = Platform_desc.num_clusters platform in
  let host = Platform_desc.host platform in
  let refs = Array.make k nan in
  let sets = Array.make k 0 in
  let gains = ref [] in
  let commands =
    {
      Supervisor.switch_gains = (fun l -> gains := l :: !gains);
      set_power_ref =
        (fun i v ->
          refs.(i) <- v;
          sets.(i) <- sets.(i) + 1);
    }
  in
  let sup = Supervisor.create ~commands ~platform ~envelope:5.0 () in
  check_int "supervisor sees 3 clusters" k (Supervisor.num_clusters sup);
  check_int "host index" host (Supervisor.host_cluster sup);
  Array.iteri
    (fun i v ->
      check_bool (Printf.sprintf "cluster %d seeded at create" i) true
        (Float.is_finite v && v > 0.))
    refs;
  (* QoS miss with safe power: the host budget must rise. *)
  let host_before = Supervisor.power_ref sup host in
  Supervisor.step sup ~qos:40. ~qos_ref:60. ~power:2.0 ~envelope:5.0;
  check_bool "host budget raised on miss" true
    (Supervisor.power_ref sup host > host_before);
  (* QoS surplus: the host budget must come back down. *)
  let host_high = Supervisor.power_ref sup host in
  Supervisor.step sup ~qos:80. ~qos_ref:60. ~power:2.0 ~envelope:5.0;
  check_bool "host budget lowered on surplus" true
    (Supervisor.power_ref sup host < host_high);
  (* Emergency: gains switch to power mode. *)
  Supervisor.step sup ~qos:60. ~qos_ref:60. ~power:6.0 ~envelope:5.0;
  check_string "emergency switches gains" "power" (Supervisor.gains_mode sup);
  check_bool "switch delivered" true (List.mem "power" !gains);
  (* Long mixed run: every cluster's reference stays physical. *)
  for t = 1 to 200 do
    let qos = if t mod 3 = 0 then 40. else 75. in
    let power = if t mod 7 = 0 then 5.6 else 2.5 in
    Supervisor.step sup ~qos ~qos_ref:60. ~power ~envelope:5.0;
    for i = 0 to k - 1 do
      let r = Supervisor.power_ref sup i in
      check_bool
        (Printf.sprintf "t=%d cluster %d ref finite positive" t i)
        true
        (Float.is_finite r && r > 0. && r <= 5.5)
    done
  done;
  (* The mock and the supervisor agree on the final per-cluster refs. *)
  Array.iteri
    (fun i v -> check_float (Printf.sprintf "cluster %d agrees" i) v
        (Supervisor.power_ref sup i))
    refs

(* ------------------------------------------------------------------ *)
(* Runtime supervisor against mock commands                            *)
(* ------------------------------------------------------------------ *)

type mock = {
  mutable gains : string list; (* switch history, newest first *)
  mutable big_ref : float;
  mutable little_ref : float;
}

let make_mock () =
  let m = { gains = []; big_ref = nan; little_ref = nan } in
  let commands =
    {
      Supervisor.switch_gains = (fun l -> m.gains <- l :: m.gains);
      set_power_ref =
        (fun i v -> if i = 0 then m.big_ref <- v else m.little_ref <- v);
    }
  in
  (m, commands)

let test_supervisor_initial_budgets () =
  let m, commands = make_mock () in
  let sup = Supervisor.create ~commands ~envelope:5.0 () in
  check_bool "initial big ref set" true (m.big_ref > 0.);
  check_float "reported" m.big_ref (Supervisor.power_ref sup 0);
  check_string "starts in qos mode" "qos" (Supervisor.gains_mode sup)

let test_supervisor_validation () =
  let _, commands = make_mock () in
  Alcotest.check_raises "bad envelope"
    (Invalid_argument "Supervisor.create: envelope <= 0") (fun () ->
      ignore (Supervisor.create ~commands ~envelope:0. ()))

let test_supervisor_emergency_switches_gains () =
  let m, commands = make_mock () in
  let sup = Supervisor.create ~commands ~envelope:5.0 () in
  (* power above the envelope -> critical -> switchPower *)
  Supervisor.step sup ~qos:60. ~qos_ref:60. ~power:5.5 ~envelope:5.0;
  check_string "power mode" "power" (Supervisor.gains_mode sup);
  check_bool "switch delivered" true (List.mem "power" m.gains)

let test_supervisor_recovers_to_qos_mode () =
  let m, commands = make_mock () in
  let sup = Supervisor.create ~commands ~envelope:5.0 () in
  Supervisor.step sup ~qos:60. ~qos_ref:60. ~power:5.5 ~envelope:5.0;
  (* power safe again — but the uncapping hysteresis holds power mode for
     min_capped_dwell supervisor periods before switching back *)
  Supervisor.step sup ~qos:60. ~qos_ref:60. ~power:3.0 ~envelope:5.0;
  check_string "dwell holds power mode" "power" (Supervisor.gains_mode sup);
  for _ = 1 to Supervisor.thresholds.Supervisor.min_capped_dwell do
    Supervisor.step sup ~qos:60. ~qos_ref:60. ~power:3.0 ~envelope:5.0
  done;
  check_string "back to qos" "qos" (Supervisor.gains_mode sup);
  check_bool "both switches seen" true
    (List.mem "qos" m.gains && List.mem "power" m.gains)

let test_supervisor_raises_budget_on_qos_miss () =
  let _, commands = make_mock () in
  let sup = Supervisor.create ~commands ~envelope:5.0 () in
  let before = Supervisor.power_ref sup 0 in
  (* QoS below reference, power safe -> Raise -> increaseBigPower *)
  Supervisor.step sup ~qos:40. ~qos_ref:60. ~power:2.0 ~envelope:5.0;
  check_bool "budget raised" true (Supervisor.power_ref sup 0 > before)

let test_supervisor_lowers_budget_on_qos_surplus () =
  let _, commands = make_mock () in
  let sup = Supervisor.create ~commands ~envelope:5.0 () in
  let before = Supervisor.power_ref sup 0 in
  (* QoS well above reference -> Lower -> decreaseBigPower *)
  Supervisor.step sup ~qos:80. ~qos_ref:60. ~power:2.0 ~envelope:5.0;
  check_bool "budget lowered" true (Supervisor.power_ref sup 0 < before)

let test_supervisor_budget_cap_respects_envelope () =
  let _, commands = make_mock () in
  let sup = Supervisor.create ~commands ~envelope:5.0 () in
  (* push the budget up for a long time *)
  for _ = 1 to 100 do
    Supervisor.step sup ~qos:30. ~qos_ref:60. ~power:3.0 ~envelope:5.0
  done;
  (* 90 % of the Little budget is reserved against the envelope; the
     rest is left to the critical-event feedback loop. *)
  check_bool "big + 0.9*little within envelope" true
    (Supervisor.power_ref sup 0
     +. (0.9 *. Supervisor.power_ref sup 1)
    <= 5.0 +. 1e-9)

let test_supervisor_envelope_drop_reclamps () =
  let _, commands = make_mock () in
  let sup = Supervisor.create ~commands ~envelope:5.0 () in
  for _ = 1 to 50 do
    Supervisor.step sup ~qos:30. ~qos_ref:60. ~power:3.0 ~envelope:5.0
  done;
  (* thermal emergency: envelope drops; budgets must re-clamp *)
  Supervisor.step sup ~qos:60. ~qos_ref:60. ~power:3.0 ~envelope:3.5;
  check_bool "reclamped under new envelope" true
    (Supervisor.power_ref sup 0 <= 3.5 +. 1e-9)

let test_supervisor_critical_cut () =
  let _, commands = make_mock () in
  let sup = Supervisor.create ~commands ~envelope:5.0 () in
  (* enter capped mode *)
  Supervisor.step sup ~qos:60. ~qos_ref:60. ~power:5.5 ~envelope:5.0;
  let capped_ref = Supervisor.power_ref sup 0 in
  (* still critical while capped -> decreaseCriticalPower *)
  Supervisor.step sup ~qos:60. ~qos_ref:60. ~power:5.5 ~envelope:5.0;
  check_bool "deep cut applied" true (Supervisor.power_ref sup 0 < capped_ref)

let test_supervisor_state_never_stuck () =
  (* Drive with adversarial random measurements; the supervisor must keep
     consuming events (never deadlock in a budget-evaluation state). *)
  let _, commands = make_mock () in
  let sup = Supervisor.create ~commands ~envelope:5.0 () in
  let g = Spectr_linalg.Prng.create 5L in
  for _ = 1 to 500 do
    let qos = Spectr_linalg.Prng.uniform g ~lo:10. ~hi:90. in
    let power = Spectr_linalg.Prng.uniform g ~lo:0.5 ~hi:6.5 in
    let envelope = if Spectr_linalg.Prng.bool g then 5.0 else 3.5 in
    Supervisor.step sup ~qos ~qos_ref:60. ~power ~envelope
  done;
  (* After driving power safe + QoS met, the supervisor must reach the
     budget-evaluation state again. *)
  Supervisor.step sup ~qos:60. ~qos_ref:60. ~power:3.0 ~envelope:5.0;
  Supervisor.step sup ~qos:60. ~qos_ref:60. ~power:3.0 ~envelope:5.0;
  let state = Supervisor.state sup in
  check_bool "in an Eval state"
    true
    (String.length state >= 4 && String.sub state 0 4 = "Eval")

let test_supervisor_budget_invariants_random_walk () =
  (* Under arbitrary measurements the budgets must stay inside their
     configured box and the mode must stay in {qos, power}. *)
  let _, commands = make_mock () in
  let sup = Supervisor.create ~commands ~envelope:5.0 () in
  let g = Spectr_linalg.Prng.create 77L in
  let c = Supervisor.thresholds in
  for _ = 1 to 1000 do
    let qos = Spectr_linalg.Prng.uniform g ~lo:0. ~hi:150. in
    let power = Spectr_linalg.Prng.uniform g ~lo:0.1 ~hi:7.0 in
    let envelope =
      [| 5.0; 3.5; 2.5 |].(Spectr_linalg.Prng.int g 3)
    in
    Supervisor.step sup ~qos ~qos_ref:60. ~power ~envelope;
    let b = Supervisor.power_ref sup 0 in
    let l = Supervisor.power_ref sup 1 in
    check_bool "big >= min" true (b >= c.Supervisor.big_budget_min -. 1e-9);
    check_bool "big <= envelope" true (b <= 5.0 +. 1e-9);
    check_bool "little in box" true
      (l >= c.Supervisor.little_budget_min -. 1e-9
      && l <= c.Supervisor.little_budget_max +. 1e-9);
    check_bool "mode valid" true
      (let m = Supervisor.gains_mode sup in
       m = "qos" || m = "power")
  done

let test_scenario_deterministic () =
  (* Same seed, same manager construction -> identical traces. *)
  let run () =
    let mgr = Mm.make_pow ~platform:Platform_desc.exynos5422 () in
    let config = Scenario.default_config Benchmarks.x264 in
    let trace = Scenario.run ~manager:mgr config in
    Trace.column trace "power"
  in
  let a = run () and b = run () in
  Array.iteri (fun i v -> check_float (string_of_int i) v b.(i)) a

(* ------------------------------------------------------------------ *)
(* Design flow                                                         *)
(* ------------------------------------------------------------------ *)

let test_design_flow_big_identifiable () =
  let ident = Design_flow.identify Design_flow.Big_2x2 in
  check_bool "R2 gate" true
    (Design_flow.validation ident).Spectr_sysid.Validation.identifiable;
  check_int "2 inputs" 2 (Array.length ident.Design_flow.input_channels);
  check_int "2 outputs" 2 (Array.length ident.Design_flow.output_channels)

(* The R² gate reads the validation report on demand: every cluster of
   the exynos5422 and the pixel8pro passes it, while cluster 3 of k4 —
   identified with no work placed on it, so its GIPS output is constant
   zero — fails it (a constant channel reads R² = nan). *)
let test_design_flow_identifiable_verdicts () =
  let verdict p i =
    (Design_flow.validation
       (Design_flow.identify (Design_flow.cluster_subsystem p i)))
      .Spectr_sysid.Validation.identifiable
  in
  List.iter
    (fun p ->
      for i = 0 to Platform_desc.num_clusters p - 1 do
        check_bool
          (Printf.sprintf "%s cluster %d identifiable" (Platform_desc.name p) i)
          true (verdict p i)
      done)
    Platform_desc.[ exynos5422; pixel8pro ];
  check_bool "k4 cluster 3 not identifiable" false
    (verdict (Platform_desc.k_cluster 4) 3)

let test_design_flow_large_worse_than_small ()
    =
  (* The §5.2 scalability claim: identification accuracy degrades as the
     controller grows. *)
  let small = Design_flow.identify Design_flow.Big_2x2 in
  let large = Design_flow.identify Design_flow.Large_10x10 in
  let avg_fit ident =
    let chans = (Design_flow.validation ident).Spectr_sysid.Validation.channels in
    Array.fold_left
      (fun acc c -> acc +. c.Spectr_sysid.Validation.fit_percent)
      0. chans
    /. float_of_int (Array.length chans)
  in
  check_bool "10x10 fits worse than 2x2" true (avg_fit large < avg_fit small);
  check_int "10 inputs" 10 (Array.length large.Design_flow.input_channels)

let test_design_flow_gains () =
  let ident = Design_flow.identify Design_flow.Big_2x2 in
  match
    Design_flow.design_gains ident
      [
        { Design_flow.label = "qos"; q_y = Mm.qos_weights };
        { Design_flow.label = "power"; q_y = Mm.power_weights };
      ]
  with
  | Error msg -> Alcotest.fail msg
  | Ok gains ->
      check_int "two gain sets" 2 (List.length gains);
      List.iter
        (fun g ->
          check_bool
            (g.Spectr_control.Lqg.label ^ " stable")
            true
            (Spectr_control.Statespace.decays
               (Spectr_sysid.Guardband.closed_loop_matrix ~gains:g
                  ~plant:g.Spectr_control.Lqg.model)))
        gains

let test_design_flow_bad_goal () =
  let ident = Design_flow.identify Design_flow.Big_2x2 in
  match
    Design_flow.design_gains ident
      [ { Design_flow.label = "bad"; q_y = [| 1. |] } ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong q_y arity must fail"

(* ------------------------------------------------------------------ *)
(* Ops cost (Figure 6)                                                 *)
(* ------------------------------------------------------------------ *)

let test_ops_cost_dims () =
  check_bool "2 cores -> 4x4 I/O" true (Ops_cost.inputs_outputs ~cores:2 = (4, 4))

let test_ops_cost_monotone_in_cores () =
  let prev = ref 0. in
  List.iter
    (fun c ->
      let v = Ops_cost.paper_curve ~cores:c ~order:4 in
      check_bool "monotone" true (v > !prev);
      prev := v)
    [ 2; 4; 8; 16; 32; 64 ]

let test_ops_cost_order_insignificant_at_scale () =
  (* §2.3: "The order becomes insignificant once #cores >> order." *)
  let at order = Ops_cost.paper_curve ~cores:70 ~order in
  let ratio_large = at 8 /. at 2 in
  let at_small order = Ops_cost.paper_curve ~cores:2 ~order in
  let ratio_small = at_small 8 /. at_small 2 in
  check_bool "order matters at small scale" true (ratio_small > 2.);
  check_bool "order negligible at large scale" true (ratio_large < 1.25)

let test_ops_cost_magnitude () =
  (* Figure 6's y-axis tops out around 1e8-1e9 at 70 cores. *)
  let v = Ops_cost.paper_curve ~cores:70 ~order:8 in
  check_bool "matches figure magnitude" true (v > 1e8 && v < 1e9)

let test_ops_cost_invocation () =
  check_bool "invocation quadratic" true
    (Ops_cost.invocation_ops ~cores:8 ~order:2
    > Ops_cost.invocation_ops ~cores:2 ~order:2);
  Alcotest.check_raises "bad cores" (Invalid_argument "Ops_cost: cores <= 0")
    (fun () -> ignore (Ops_cost.invocation_ops ~cores:0 ~order:2))

(* ------------------------------------------------------------------ *)
(* Scenario + managers (paper claims, x264)                            *)
(* ------------------------------------------------------------------ *)

(* Building managers runs identification; do it once for the module. *)
let cfg = Scenario.default_config Benchmarks.x264

let metrics_of mgr =
  let trace = Scenario.run ~manager:mgr cfg in
  Metrics.per_phase ~trace ~config:cfg

let spectr_metrics = lazy (metrics_of (fst (Spectr_manager.make ())))
let exynos = Platform_desc.exynos5422
let mm_pow_metrics = lazy (metrics_of (Mm.make_pow ~platform:exynos ()))
let mm_perf_metrics = lazy (metrics_of (Mm.make_perf ~platform:exynos ()))
let fs_metrics = lazy (metrics_of (Fs.make ()))

let test_scenario_trace_shape () =
  let trace = Scenario.run ~manager:(Mm.make_pow ~platform:exynos ()) cfg in
  (* 15 s at 50 ms -> 300 rows *)
  check_int "rows" 300 (Trace.length trace);
  let bounds = Scenario.phase_bounds cfg in
  check_int "three phases" 3 (List.length bounds);
  match bounds with
  | [ (_, a, b); (_, c, d); (_, e, f) ] ->
      check_int "contiguous 1" b c;
      check_int "contiguous 2" d e;
      check_int "start" 0 a;
      check_int "end" 300 f
  | _ -> Alcotest.fail "unexpected bounds"

let test_safe_phase_qos () =
  (* Phase 1: every manager meets (or exceeds) the achievable QoS
     reference within ~10 %. *)
  List.iter
    (fun (name, m) ->
      let q = Metrics.qos_of (Lazy.force m) "safe" in
      check_bool (name ^ " meets QoS in safe phase") true (q < 10.))
    [
      ("SPECTR", spectr_metrics);
      ("MM-Pow", mm_pow_metrics);
      ("MM-Perf", mm_perf_metrics);
      ("FS", fs_metrics);
    ]

let test_safe_phase_efficiency_split () =
  (* Paper §5.1.1: SPECTR and MM-Perf save significant power while
     meeting QoS; MM-Pow and FS consume the budget and overshoot FPS. *)
  let p name m = Metrics.power_of (Lazy.force m) name in
  let q name m = Metrics.qos_of (Lazy.force m) name in
  check_bool "SPECTR saves power" true (p "safe" spectr_metrics > 30.);
  check_bool "MM-Perf saves power" true (p "safe" mm_perf_metrics > 30.);
  check_bool "MM-Pow burns budget" true (p "safe" mm_pow_metrics < 20.);
  check_bool "FS burns budget" true (p "safe" fs_metrics < 20.);
  check_bool "MM-Pow overshoots FPS" true (q "safe" mm_pow_metrics < -10.);
  check_bool "FS overshoots FPS" true (q "safe" fs_metrics < -10.)

let test_emergency_phase_all_adapt () =
  (* Phase 2: everyone keeps QoS near the reference under the reduced
     envelope. *)
  List.iter
    (fun (name, m) ->
      let q = Metrics.qos_of (Lazy.force m) "emergency" in
      check_bool (name ^ " maintains QoS in emergency") true (q < 12.))
    [
      ("SPECTR", spectr_metrics);
      ("MM-Pow", mm_pow_metrics);
      ("MM-Perf", mm_perf_metrics);
      ("FS", fs_metrics);
    ]

let test_emergency_spectr_fast_compliance () =
  (* §5.1.1: SPECTR responds faster than FS to the envelope drop. *)
  let comply m =
    match
      (List.find
         (fun pm -> pm.Metrics.phase_name = "emergency")
         (Lazy.force m))
        .Metrics.compliance_time_s
    with
    | Some t -> t
    | None -> infinity
  in
  check_bool "SPECTR compliant quickly" true (comply spectr_metrics < 0.5);
  check_bool "SPECTR faster than FS" true
    (comply spectr_metrics < comply fs_metrics)

let test_disturbance_phase () =
  (* Phase 3: the reference is unachievable within TDP.  MM-Perf gets the
     highest QoS but violates the TDP; SPECTR and MM-Pow/FS obey it. *)
  let q name m = Metrics.qos_of (Lazy.force m) name in
  let p name m = Metrics.power_of (Lazy.force m) name in
  check_bool "MM-Perf best QoS" true
    (q "disturbance" mm_perf_metrics <= q "disturbance" spectr_metrics
    && q "disturbance" mm_perf_metrics <= q "disturbance" mm_pow_metrics);
  check_bool "MM-Perf violates TDP" true (p "disturbance" mm_perf_metrics < -5.);
  check_bool "SPECTR obeys TDP" true (p "disturbance" spectr_metrics > -2.);
  check_bool "MM-Pow at the limit" true
    (abs_float (p "disturbance" mm_pow_metrics) < 5.);
  check_bool "everyone degrades QoS" true (q "disturbance" spectr_metrics > 5.)

let test_spectr_adapts_priorities () =
  (* The signature SPECTR property (autonomy): efficient like MM-Perf in
     the safe phase, TDP-respecting like MM-Pow under disturbance. *)
  let p name m = Metrics.power_of (Lazy.force m) name in
  check_bool "safe: efficient" true
    (p "safe" spectr_metrics > p "safe" mm_pow_metrics +. 20.);
  check_bool "disturbance: compliant" true
    (p "disturbance" spectr_metrics > p "disturbance" mm_perf_metrics +. 5.)

let test_spectr_energy_efficiency () =
  (* Goal i) of §4.2: meet QoS while minimizing energy.  In the safe
     phase SPECTR must deliver its QoS work at lower energy per
     heartbeat than the budget-burning MM-Pow. *)
  let eff m =
    (List.find
       (fun pm -> pm.Metrics.phase_name = "safe")
       (Lazy.force m))
      .Metrics.energy_per_heartbeat_j
  in
  check_bool "SPECTR cheaper per heartbeat than MM-Pow" true
    (eff spectr_metrics < eff mm_pow_metrics)

let test_gain_scheduling_ablation () =
  (* Without gain scheduling the supervisor can still re-budget, but the
     emergency reaction loses its mode switch; the system must still run
     (no crash) and remain TDP-compliant on average. *)
  let mgr, _ = Spectr_manager.make ~gain_scheduling:false () in
  let metrics = metrics_of mgr in
  check_bool "still controls QoS in safe phase" true
    (Metrics.qos_of metrics "safe" < 15.)

let test_supervisor_divisor_validation () =
  Alcotest.check_raises "divisor"
    (Invalid_argument "Spectr_manager.make: supervisor_divisor < 1") (fun () ->
      ignore (Spectr_manager.make ~supervisor_divisor:0 ()))

(* ------------------------------------------------------------------ *)
(* Other benchmarks smoke: SPECTR completes and stays TDP-compliant     *)
(* ------------------------------------------------------------------ *)

let test_thermal_governor () =
  let gov =
    Thermal_governor.create ~trip_c:70. ~release_c:62. ~tdp:5.0
      ~emergency_envelope:3.5 ()
  in
  check_float "cool -> TDP" 5.0 (Thermal_governor.envelope gov ~temperature_c:50.);
  check_bool "not tripped" false (Thermal_governor.tripped gov);
  check_float "hot -> emergency" 3.5
    (Thermal_governor.envelope gov ~temperature_c:71.);
  (* hysteresis: between release and trip it stays tripped *)
  check_float "hysteresis holds" 3.5
    (Thermal_governor.envelope gov ~temperature_c:65.);
  check_float "releases below 62" 5.0
    (Thermal_governor.envelope gov ~temperature_c:60.);
  check_bool "released" false (Thermal_governor.tripped gov)

let test_thermal_governor_validation () =
  Alcotest.check_raises "ordering"
    (Invalid_argument "Thermal_governor.create: release_c >= trip_c") (fun () ->
      ignore
        (Thermal_governor.create ~trip_c:60. ~release_c:60. ~tdp:5.
           ~emergency_envelope:3. ()));
  Alcotest.check_raises "envelope"
    (Invalid_argument "Thermal_governor.create: emergency envelope >= TDP")
    (fun () ->
      ignore (Thermal_governor.create ~tdp:5. ~emergency_envelope:5. ()))

(* Hysteresis boundaries are strict comparisons: a reading exactly at
   [trip_c] does not trip (the thermostat trips strictly above), and a
   tripped governor reading exactly [release_c] stays tripped (release
   is strictly below).  Pinning the boundary semantics keeps the
   governor's behaviour stable under sensor quantization that lands
   samples exactly on the thresholds. *)
let test_thermal_governor_boundaries () =
  let gov =
    Thermal_governor.create ~trip_c:70. ~release_c:62. ~tdp:5.0
      ~emergency_envelope:3.5 ()
  in
  check_float "exactly at trip stays nominal" 5.0
    (Thermal_governor.envelope gov ~temperature_c:70.);
  check_bool "not tripped at trip_c" false (Thermal_governor.tripped gov);
  check_float "epsilon above trips" 3.5
    (Thermal_governor.envelope gov ~temperature_c:70.0000001);
  check_bool "tripped" true (Thermal_governor.tripped gov);
  check_float "exactly at release stays tripped" 3.5
    (Thermal_governor.envelope gov ~temperature_c:62.);
  check_bool "still tripped at release_c" true (Thermal_governor.tripped gov);
  check_float "epsilon below releases" 5.0
    (Thermal_governor.envelope gov ~temperature_c:61.9999999);
  check_bool "released" false (Thermal_governor.tripped gov);
  (* State updates before the envelope is produced, so the very sample
     that crosses a threshold already yields the new envelope — no
     one-sample lag on either edge. *)
  check_float "crossing sample already emergency" 3.5
    (Thermal_governor.envelope gov ~temperature_c:80.)

(* Interaction with reconfiguration: a degraded description has a
   smaller peak power, so the emergency envelope must be re-derived —
   the healthy platform's emergency envelope can sit at or above the
   degraded plant's whole thermal design power, where the governor
   rightly refuses it (an "emergency" cap that caps nothing is a config
   bug).  Scaling the envelope by the degraded/healthy capacity ratio —
   exactly how the fleet layer reports degraded capacity — always
   yields a valid governor. *)
let test_thermal_governor_degraded_envelope () =
  let healthy = Platform_desc.exynos5422 in
  let degraded = Platform_desc.degrade healthy (Platform_desc.Remove_cluster 1) in
  let full = Platform_desc.max_power_estimate healthy in
  let reduced = Platform_desc.max_power_estimate degraded in
  check_bool "degraded peak strictly smaller" true (reduced < full);
  (* A mild healthy emergency envelope (90 % of peak — losing the
     little cluster only costs ~12 % of exynos5422's budget) already
     exceeds the degraded peak. *)
  let healthy_emergency = 0.9 *. full in
  check_bool "healthy emergency envelope exceeds degraded TDP" true
    (healthy_emergency >= reduced);
  Alcotest.check_raises "stale envelope rejected on degraded platform"
    (Invalid_argument "Thermal_governor.create: emergency envelope >= TDP")
    (fun () ->
      ignore
        (Thermal_governor.create ~tdp:reduced
           ~emergency_envelope:healthy_emergency ()));
  (* Re-derived by capacity ratio: valid, and the governor enforces the
     smaller envelope through a trip/release cycle. *)
  let scaled = healthy_emergency *. (reduced /. full) in
  let gov =
    Thermal_governor.create ~tdp:reduced ~emergency_envelope:scaled ()
  in
  check_float "degraded TDP when cool" reduced
    (Thermal_governor.envelope gov ~temperature_c:50.);
  check_float "degraded emergency when hot" scaled
    (Thermal_governor.envelope gov ~temperature_c:75.);
  check_bool "scaled envelope below degraded TDP" true (scaled < reduced);
  check_float "releases to degraded TDP" reduced
    (Thermal_governor.envelope gov ~temperature_c:55.)

let test_closed_thermal_loop () =
  (* End-to-end: a hot QoS demand under the governor; SPECTR must keep
     the die from running away (bounded temperature) while still doing
     useful work. *)
  let mgr, _ = Spectr_manager.make () in
  let gov = Thermal_governor.create ~trip_c:63. ~release_c:56. ~tdp:5.0
      ~emergency_envelope:3.2 () in
  let soc = Soc.create ~qos:Benchmarks.x264 () in
  let qos_ref = 0.95 *. Perf_model.max_qos_rate_for Platform_desc.exynos5422 Benchmarks.x264 in
  let max_temp = ref 0. in
  for _ = 1 to 400 do
    let obs = Soc.step soc ~dt:0.05 in
    let envelope =
      Thermal_governor.envelope gov ~temperature_c:obs.Soc.temperature_c
    in
    max_temp := Float.max !max_temp (Soc.temperature soc);
    mgr.Manager.step ~now:obs.Soc.time ~qos_ref ~envelope ~obs soc
  done;
  check_bool "temperature bounded" true (!max_temp < 72.);
  let truth = Array.make 2 0. in
  Soc.ground_truth soc truth;
  check_bool "still doing work" true (truth.(1) > 30.)

let test_siso_baseline () =
  (* Row C of Table 1: independent SISO loops.  They must control the
     system (meet QoS when feasible) but, lacking coordination, end up
     in energy-suboptimal configurations — here, strictly less
     power-efficient than SPECTR in the safe phase is NOT guaranteed,
     but they must at least track QoS and stay sane. *)
  let metrics = metrics_of (Siso.make ()) in
  check_bool "meets QoS in safe phase" true (Metrics.qos_of metrics "safe" < 10.);
  List.iter
    (fun pm ->
      check_bool (pm.Metrics.phase_name ^ " finite") true
        (Float.is_finite pm.Metrics.qos_error_pct
        && Float.is_finite pm.Metrics.power_error_pct))
    metrics

let test_other_benchmarks_run () =
  List.iter
    (fun w ->
      let cfg = Scenario.default_config w in
      let mgr, _ = Spectr_manager.make () in
      let trace = Scenario.run ~manager:mgr cfg in
      let metrics = Metrics.per_phase ~trace ~config:cfg in
      (* sane output everywhere *)
      List.iter
        (fun pm ->
          check_bool
            (w.Workload.name ^ "/" ^ pm.Metrics.phase_name ^ " finite")
            true
            (Float.is_finite pm.Metrics.qos_error_pct
            && Float.is_finite pm.Metrics.power_error_pct))
        metrics)
    [ Benchmarks.streamcluster; Benchmarks.canneal ]

(* ------------------------------------------------------------------ *)
(* Synthesis fixpoint details                                          *)
(* ------------------------------------------------------------------ *)

let test_synthesis_stats_pinned () =
  (* The worklist rewrite of the uncontrollable pass must leave the
     case-study synthesis bit-for-bit unchanged; these are the numbers
     the original full-rescan implementation produced. *)
  let _, stats = Supervisor.synthesize () in
  check_int "product states" 27 stats.Synthesis.product_states;
  check_int "forbidden" 6 stats.Synthesis.removed_forbidden;
  check_int "uncontrollable" 0 stats.Synthesis.removed_uncontrollable;
  check_int "blocking" 0 stats.Synthesis.removed_blocking;
  check_int "iterations" 1 stats.Synthesis.iterations

let test_supervisor_pinned_fixture () =
  (* The exact pre-refactor case-study supervisor, dumped transition by
     transition before the index-native rewrite of the automata core.
     The refactored compose/supcon pipeline must reproduce it up to
     state renumbering — [isomorphic] also compares alphabets (with
     controllability), marking and forbidden sets — and the state
     *names* must survive unchanged too, since downstream trace logs
     key on them. *)
  let c = Event.controllable and u = Event.uncontrollable in
  let fixture =
    Automaton.create
      ~marked:[ "Eval\\.Safe.Uncapped" ]
      ~name:"sup(QoSManagement||PowerCapping,ThreeBandCapping)"
      ~initial:"Eval\\.Safe.Uncapped"
      ~transitions:
        [
          ("Eval\\.Safe.Uncapped", u "QoSmet", "Lower\\.Safe.Uncapped");
          ("Eval\\.Safe.Uncapped", u "QoSnotMet", "Raise\\.Safe.Uncapped");
          ("Eval\\.Safe.Uncapped", u "aboveTarget", "Eval\\.Watch.Uncapped");
          ("Eval\\.Safe.Uncapped", u "belowTarget", "Eval\\.Safe.Uncapped");
          ("Eval\\.Safe.Uncapped", u "critical", "Eval\\.Emergency.C1");
          ("Eval\\.Safe.Uncapped", u "powerSafeQoSMet", "Lower\\.Safe.Uncapped");
          ("Eval\\.Safe.Uncapped", u "powerSafeQoSNotMet", "Raise\\.Safe.Uncapped");
          ("Eval\\.Safe.Uncapped", u "safePower", "Eval\\.Safe.Uncapped");
          ("Lower\\.Watch.Uncapped", c "controlPower", "Lower\\.Safe.Uncapped");
          ("Lower\\.Watch.Uncapped", u "critical", "Lower\\.Emergency.C1");
          ("Lower\\.Watch.Uncapped", c "decreaseBigPower", "Eval\\.Watch.Uncapped");
          ("Lower\\.Watch.Uncapped", c "decreaseLittlePower", "Eval\\.Watch.Uncapped");
          ("Lower\\.Watch.Uncapped", c "holdBudget", "Eval\\.Watch.Uncapped");
          ("Eval\\.Watch.Uncapped", u "QoSmet", "Lower\\.Watch.Uncapped");
          ("Eval\\.Watch.Uncapped", u "QoSnotMet", "Raise\\.Watch.Uncapped");
          ("Eval\\.Watch.Uncapped", c "controlPower", "Eval\\.Safe.Uncapped");
          ("Eval\\.Watch.Uncapped", u "critical", "Eval\\.Emergency.C1");
          ("Eval\\.Watch.Uncapped", u "powerSafeQoSMet", "Lower\\.Watch.Uncapped");
          ("Eval\\.Watch.Uncapped", u "powerSafeQoSNotMet", "Raise\\.Watch.Uncapped");
          ("Lower\\.Emergency.C1", c "holdBudget", "Eval\\.Emergency.C1");
          ("Lower\\.Emergency.C1", c "switchPower", "Lower\\.Capped.Capped");
          ("Lower\\.Safe.Uncapped", u "aboveTarget", "Lower\\.Watch.Uncapped");
          ("Lower\\.Safe.Uncapped", u "belowTarget", "Lower\\.Safe.Uncapped");
          ("Lower\\.Safe.Uncapped", u "critical", "Lower\\.Emergency.C1");
          ("Lower\\.Safe.Uncapped", c "decreaseBigPower", "Eval\\.Safe.Uncapped");
          ("Lower\\.Safe.Uncapped", c "decreaseLittlePower", "Eval\\.Safe.Uncapped");
          ("Lower\\.Safe.Uncapped", c "holdBudget", "Eval\\.Safe.Uncapped");
          ("Lower\\.Safe.Uncapped", u "safePower", "Lower\\.Safe.Uncapped");
          ("Lower\\.Capped.Capped", u "aboveTarget", "Lower\\.Capped.Capped");
          ("Lower\\.Capped.Capped", u "critical", "Lower\\.StillHot.CapHot");
          ("Lower\\.Capped.Capped", c "decreaseBigPower", "Eval\\.Capped.Capped");
          ("Lower\\.Capped.Capped", c "decreaseLittlePower", "Eval\\.Capped.Capped");
          ("Lower\\.Capped.Capped", c "holdBudget", "Eval\\.Capped.Capped");
          ("Lower\\.Capped.Capped", u "safePower", "Lower\\.Restore.CapSafe");
          ("Eval\\.Emergency.C1", u "QoSmet", "Lower\\.Emergency.C1");
          ("Eval\\.Emergency.C1", u "QoSnotMet", "Raise\\.Emergency.C1");
          ("Eval\\.Emergency.C1", u "powerSafeQoSMet", "Lower\\.Emergency.C1");
          ("Eval\\.Emergency.C1", u "powerSafeQoSNotMet", "Raise\\.Emergency.C1");
          ("Eval\\.Emergency.C1", c "switchPower", "Eval\\.Capped.Capped");
          ("Raise\\.Watch.Uncapped", c "controlPower", "Raise\\.Safe.Uncapped");
          ("Raise\\.Watch.Uncapped", u "critical", "Raise\\.Emergency.C1");
          ("Raise\\.Watch.Uncapped", c "holdBudget", "Eval\\.Watch.Uncapped");
          ("Raise\\.Watch.Uncapped", c "increaseBigPower", "Eval\\.Watch.Uncapped");
          ("Raise\\.Watch.Uncapped", c "increaseLittlePower", "Eval\\.Watch.Uncapped");
          ("Raise\\.Emergency.C1", c "holdBudget", "Eval\\.Emergency.C1");
          ("Raise\\.Emergency.C1", c "switchPower", "Raise\\.Capped.Capped");
          ("Raise\\.Safe.Uncapped", u "aboveTarget", "Raise\\.Watch.Uncapped");
          ("Raise\\.Safe.Uncapped", u "belowTarget", "Raise\\.Safe.Uncapped");
          ("Raise\\.Safe.Uncapped", u "critical", "Raise\\.Emergency.C1");
          ("Raise\\.Safe.Uncapped", c "holdBudget", "Eval\\.Safe.Uncapped");
          ("Raise\\.Safe.Uncapped", c "increaseBigPower", "Eval\\.Safe.Uncapped");
          ("Raise\\.Safe.Uncapped", c "increaseLittlePower", "Eval\\.Safe.Uncapped");
          ("Raise\\.Safe.Uncapped", u "safePower", "Raise\\.Safe.Uncapped");
          ("Eval\\.Capped.Capped", u "QoSmet", "Lower\\.Capped.Capped");
          ("Eval\\.Capped.Capped", u "QoSnotMet", "Raise\\.Capped.Capped");
          ("Eval\\.Capped.Capped", u "aboveTarget", "Eval\\.Capped.Capped");
          ("Eval\\.Capped.Capped", u "critical", "Eval\\.StillHot.CapHot");
          ("Eval\\.Capped.Capped", u "powerSafeQoSMet", "Lower\\.Capped.Capped");
          ("Eval\\.Capped.Capped", u "powerSafeQoSNotMet", "Raise\\.Capped.Capped");
          ("Eval\\.Capped.Capped", u "safePower", "Eval\\.Restore.CapSafe");
          ("Raise\\.Capped.Capped", u "aboveTarget", "Raise\\.Capped.Capped");
          ("Raise\\.Capped.Capped", u "critical", "Raise\\.StillHot.CapHot");
          ("Raise\\.Capped.Capped", c "holdBudget", "Eval\\.Capped.Capped");
          ("Raise\\.Capped.Capped", u "safePower", "Raise\\.Restore.CapSafe");
          ("Lower\\.Restore.CapSafe", c "holdBudget", "Eval\\.Restore.CapSafe");
          ("Lower\\.Restore.CapSafe", c "switchQoS", "Lower\\.Safe.Uncapped");
          ("Lower\\.StillHot.CapHot", c "decreaseCriticalPower", "Lower\\.Cooling.Capped");
          ("Lower\\.StillHot.CapHot", c "holdBudget", "Eval\\.StillHot.CapHot");
          ("Eval\\.Restore.CapSafe", u "QoSmet", "Lower\\.Restore.CapSafe");
          ("Eval\\.Restore.CapSafe", u "QoSnotMet", "Raise\\.Restore.CapSafe");
          ("Eval\\.Restore.CapSafe", u "powerSafeQoSMet", "Lower\\.Restore.CapSafe");
          ("Eval\\.Restore.CapSafe", u "powerSafeQoSNotMet", "Raise\\.Restore.CapSafe");
          ("Eval\\.Restore.CapSafe", c "switchQoS", "Eval\\.Safe.Uncapped");
          ("Eval\\.StillHot.CapHot", u "QoSmet", "Lower\\.StillHot.CapHot");
          ("Eval\\.StillHot.CapHot", u "QoSnotMet", "Raise\\.StillHot.CapHot");
          ("Eval\\.StillHot.CapHot", c "decreaseCriticalPower", "Eval\\.Cooling.Capped");
          ("Eval\\.StillHot.CapHot", u "powerSafeQoSMet", "Lower\\.StillHot.CapHot");
          ("Eval\\.StillHot.CapHot", u "powerSafeQoSNotMet", "Raise\\.StillHot.CapHot");
          ("Raise\\.Restore.CapSafe", c "holdBudget", "Eval\\.Restore.CapSafe");
          ("Raise\\.Restore.CapSafe", c "switchQoS", "Raise\\.Safe.Uncapped");
          ("Raise\\.StillHot.CapHot", c "decreaseCriticalPower", "Raise\\.Cooling.Capped");
          ("Raise\\.StillHot.CapHot", c "holdBudget", "Eval\\.StillHot.CapHot");
          ("Lower\\.Cooling.Capped", u "aboveTarget", "Lower\\.Cooling.Capped");
          ("Lower\\.Cooling.Capped", c "decreaseBigPower", "Eval\\.Cooling.Capped");
          ("Lower\\.Cooling.Capped", c "decreaseLittlePower", "Eval\\.Cooling.Capped");
          ("Lower\\.Cooling.Capped", c "holdBudget", "Eval\\.Cooling.Capped");
          ("Lower\\.Cooling.Capped", u "safePower", "Lower\\.Restore.CapSafe");
          ("Eval\\.Cooling.Capped", u "QoSmet", "Lower\\.Cooling.Capped");
          ("Eval\\.Cooling.Capped", u "QoSnotMet", "Raise\\.Cooling.Capped");
          ("Eval\\.Cooling.Capped", u "aboveTarget", "Eval\\.Cooling.Capped");
          ("Eval\\.Cooling.Capped", u "powerSafeQoSMet", "Lower\\.Cooling.Capped");
          ("Eval\\.Cooling.Capped", u "powerSafeQoSNotMet", "Raise\\.Cooling.Capped");
          ("Eval\\.Cooling.Capped", u "safePower", "Eval\\.Restore.CapSafe");
          ("Raise\\.Cooling.Capped", u "aboveTarget", "Raise\\.Cooling.Capped");
          ("Raise\\.Cooling.Capped", c "holdBudget", "Eval\\.Cooling.Capped");
          ("Raise\\.Cooling.Capped", u "safePower", "Raise\\.Restore.CapSafe");
        ]
      ()
  in
  check_int "fixture states" 21 (Automaton.num_states fixture);
  check_int "fixture transitions" 96 (Automaton.num_transitions fixture);
  let sup, stats = Supervisor.synthesize () in
  check_int "states" 21 (Automaton.num_states sup);
  check_int "transitions" 96 (Automaton.num_transitions sup);
  check_string "initial name" "Eval\\.Safe.Uncapped" (Automaton.initial sup);
  check_bool "marked names" true
    (Automaton.marked sup = [ "Eval\\.Safe.Uncapped" ]);
  check_bool "state names preserved" true
    (List.sort String.compare (Automaton.states sup)
    = List.sort String.compare (Automaton.states fixture));
  check_bool "isomorphic to pre-refactor supervisor" true
    (Automaton.isomorphic sup fixture);
  check_int "product states" 27 stats.Synthesis.product_states

let test_synthesis_uncontrollable_worklist () =
  (* The case-study models never exercise uncontrollable pruning, so
     build a plant where they do: S0 -go1-> S1a -tick!-> S1 -boom!-> S2,
     plus a safe S0 -go2-> S3.  The spec disables boom outright, so
     (S1) is uncontrollably unsafe and the badness must propagate back
     over tick! to S1a via the worklist; the supervisor can only cut the
     controllable go1. *)
  let go1 = Event.controllable "go1" in
  let go2 = Event.controllable "go2" in
  let tick = Event.uncontrollable "tick" in
  let boom = Event.uncontrollable "boom" in
  let plant =
    Automaton.create ~name:"plant" ~initial:"S0"
      ~marked:[ "S0"; "S3" ]
      ~transitions:
        [
          ("S0", go1, "S1a");
          ("S1a", tick, "S1");
          ("S1", boom, "S2");
          ("S0", go2, "S3");
        ]
      ()
  in
  let spec =
    Automaton.create ~name:"spec" ~initial:"P0" ~marked:[ "P0" ]
      ~alphabet:[ go1; go2; tick; boom ]
      ~transitions:
        [ ("P0", go1, "P0"); ("P0", go2, "P0"); ("P0", tick, "P0") ]
      ()
  in
  match Synthesis.supcon ~plant ~spec with
  | Error _ -> Alcotest.fail "supervisor must be nonempty"
  | Ok (sup, stats) ->
      check_int "reachable product" 4 stats.Synthesis.product_states;
      check_int "uncontrollable removed" 2
        stats.Synthesis.removed_uncontrollable;
      check_bool "go1 pruned" false
        (List.exists (Event.equal go1)
           (Automaton.enabled sup (Automaton.initial sup)));
      check_bool "go2 kept" true
        (List.exists (Event.equal go2)
           (Automaton.enabled sup (Automaton.initial sup)));
      check_bool "still controllable" true
        (Verify.is_controllable ~plant ~supervisor:sup);
      check_bool "still nonblocking" true (Verify.is_nonblocking sup)

(* ------------------------------------------------------------------ *)
(* Guarded degradation layer                                           *)
(* ------------------------------------------------------------------ *)

(* Alternating healthy readings: live sensors are noisy, so identical
   streaks would (correctly) trip the stuck detector. *)
let healthy_step g ~now i =
  let wiggle = if i mod 2 = 0 then 0. else 0.11 in
  Guarded.filter g ~now ~qos:(60. +. wiggle) ~powers:[| 2. +. wiggle; 1. +. wiggle |]

(* One [Guarded.filter] period and whether it was healthy: the guard
   counts every period in which a channel needed substitution. *)
let filter_healthy g ~now ~qos ~powers =
  let before = Guarded.substituted_samples g in
  let f = Guarded.filter g ~now ~qos ~powers in
  (f, Guarded.substituted_samples g = before)

let warmed_guards () =
  let g = Guarded.create ~clusters:2 () in
  for i = 1 to 5 do
    ignore (healthy_step g ~now:(float_of_int i *. 0.05) i)
  done;
  g

let test_guarded_filter_never_nonfinite () =
  let g = warmed_guards () in
  let garbage = [ nan; infinity; neg_infinity; -3.; 1e12; 0. ] in
  List.iteri
    (fun i v ->
      let f, healthy =
        filter_healthy g
          ~now:(0.3 +. (float_of_int i *. 0.05))
          ~qos:v ~powers:[| v; v |]
      in
      check_bool "qos finite" true (Float.is_finite f.Guarded.qos);
      check_bool "big finite" true (Float.is_finite (Guarded.powers g).(0));
      check_bool "little finite" true (Float.is_finite (Guarded.powers g).(1));
      check_bool "flagged unhealthy" false healthy)
    garbage

let test_guarded_watchdog_trip_and_recover () =
  let g = warmed_guards () in
  let cfg = Guarded.thresholds in
  (* Persistent sensor loss: dead QoS line (0 is below the plausible
     floor).  The watchdog must trip after trip_count periods... *)
  for i = 1 to cfg.Guarded.trip_count do
    let now = 0.25 +. (float_of_int i *. 0.05) in
    ignore (Guarded.filter g ~now ~qos:0. ~powers:[| 2.; 1. |])
  done;
  check_bool "degraded after persistent loss" true (Guarded.degraded g);
  (* ... and hand control back only after recover_count healthy ones. *)
  for i = 1 to cfg.Guarded.recover_count do
    let now = 1. +. (float_of_int i *. 0.05) in
    ignore (healthy_step g ~now i)
  done;
  check_bool "recovered" false (Guarded.degraded g);
  match Guarded.recovery_times g with
  | [ t ] ->
      check_bool "finite recovery time" true (Float.is_finite t && t > 0.)
  | l -> Alcotest.failf "expected one completed span, got %d" (List.length l)

(* After a fallback and a clean recovery the watchdog must be re-armed:
   a second fault in the same run trips it again with the same
   trip_count latency, and both spans are accounted.  (A watchdog that
   only fires once would pass every single-fault test and still be
   useless in a soak.) *)
let test_guarded_watchdog_rearms () =
  let g = warmed_guards () in
  let cfg = Guarded.thresholds in
  let now = ref 0.25 in
  let advance () =
    now := !now +. 0.05;
    !now
  in
  let dead_qos_until_tripped () =
    let n = ref 0 in
    while (not (Guarded.degraded g)) && !n < 4 * cfg.Guarded.trip_count do
      incr n;
      ignore
        (Guarded.filter g ~now:(advance ()) ~qos:0. ~powers:[| 2.; 1. |])
    done;
    check_bool "tripped" true (Guarded.degraded g)
  in
  let healthy_until_recovered () =
    let n = ref 0 in
    while Guarded.degraded g && !n < 4 * cfg.Guarded.recover_count do
      incr n;
      ignore (healthy_step g ~now:(advance ()) !n)
    done;
    check_bool "recovered" false (Guarded.degraded g)
  in
  dead_qos_until_tripped ();
  healthy_until_recovered ();
  (* Fault clears, run continues... a second, unrelated fault hits. *)
  dead_qos_until_tripped ();
  healthy_until_recovered ();
  (match Guarded.recovery_times g with
  | [ t1; t2 ] ->
      check_bool "both spans finite" true
        (Float.is_finite t1 && Float.is_finite t2 && t1 > 0. && t2 > 0.)
  | l -> Alcotest.failf "expected two completed spans, got %d" (List.length l));
  check_bool "no open span left" true
    (List.for_all
       (fun (_, exited) -> exited <> None)
       (Guarded.degradation_spans g))

let test_guarded_spike_vs_level_shift () =
  let g = warmed_guards () in
  (* One outlier spike on the Big power sensor: substituted, and the
     spiked value itself must never come back out of the filter. *)
  let _, healthy =
    filter_healthy g ~now:0.3 ~qos:60. ~powers:[| 9.5; 1. |]
  in
  check_bool "spike rejected" false healthy;
  check_bool "substitute near last good" true
    (Float.abs ((Guarded.powers g).(0) -. 2.) < 0.5);
  (* A genuine level shift persists and must eventually be accepted
     without tripping the watchdog. *)
  let accepted = ref 0. in
  for i = 1 to 8 do
    let wiggle = if i mod 2 = 0 then 0. else 0.11 in
    ignore
      (Guarded.filter g
         ~now:(0.3 +. (float_of_int i *. 0.05))
         ~qos:(60. +. wiggle)
         ~powers:[| 6. +. wiggle; 1. +. wiggle |]);
    accepted := (Guarded.powers g).(0)
  done;
  check_bool "level shift accepted" true (Float.abs (!accepted -. 6.) < 0.5);
  check_bool "no degradation for a shift" false (Guarded.degraded g)

let test_guarded_stuck_sensor () =
  let g = warmed_guards () in
  let cfg = Guarded.thresholds in
  let last = ref true in
  for i = 1 to cfg.Guarded.qos.Guarded.stuck_count + 2 do
    let wiggle = if i mod 2 = 0 then 0. else 0.11 in
    (* QoS frozen bit-identically; power keeps wiggling. *)
    let _, healthy =
      filter_healthy g
        ~now:(0.25 +. (float_of_int i *. 0.05))
        ~qos:57.25
        ~powers:[| 2. +. wiggle; 1. +. wiggle |]
    in
    last := healthy
  done;
  check_bool "frozen streak flagged" false !last

let test_guarded_actuator_watchdog () =
  let g = warmed_guards () in
  let cfg = Guarded.thresholds in
  for i = 1 to cfg.Guarded.trip_count do
    Guarded.note_actuation g ~now:(float_of_int i *. 0.05) ~ok:false
  done;
  check_bool "actuator disobedience trips" true (Guarded.degraded g)

(* One actuator verdict per control period, however many clusters
   report in it: the period is disobedient when any actuated cluster
   mismatched.  Returns the period the watchdog tripped in, if any. *)
let periods_to_trip readbacks =
  let g = warmed_guards () in
  let tripped = ref None in
  for p = 1 to 3 * Guarded.thresholds.Guarded.trip_count do
    let now = 0.25 +. (float_of_int p *. 0.05) in
    ignore (healthy_step g ~now p);
    List.iter (fun ok -> Guarded.note_actuation g ~now ~ok) readbacks;
    if !tripped = None && Guarded.degraded g then tripped := Some p
  done;
  !tripped

let test_guarded_actuator_per_period () =
  let trip = Some Guarded.thresholds.Guarded.trip_count in
  let check = Alcotest.(check (option int)) in
  check "one of two clusters disobeying trips" trip (periods_to_trip [ false; true ]);
  check "either one" trip (periods_to_trip [ true; false ]);
  check "both disobeying take trip_count periods" trip
    (periods_to_trip [ false; false ]);
  check "obedient clusters never trip" None (periods_to_trip [ true; true ])

(* ------------------------------------------------------------------ *)
(* Actuation-path sanitization                                         *)
(* ------------------------------------------------------------------ *)

let test_manager_sanitize () =
  (* Both read the command in place, at [~at]. *)
  let freq ghz = Opp.request_at Opp.big [| 0.; ghz |] ~at:1 in
  let cores c = Manager.sanitize_cores ~max_cores:4 [| 0.; c |] ~at:1 in
  check_int "nan freq -> min OPP" 200 (freq nan);
  check_int "+inf freq -> max OPP" 2000 (freq infinity);
  check_int "-inf freq -> min OPP" 200 (freq neg_infinity);
  check_int "negative freq -> min OPP" 200 (freq (-0.4));
  check_int "finite quantizes to the nearest OPP" 1200 (freq 1.234);
  check_int "ties resolve downward" 1200 (freq 1.25);
  check_int "nan cores -> 1" 1 (cores nan);
  check_int "+inf cores -> 4" 4 (cores infinity);
  check_int "-inf cores -> 1" 1 (cores neg_infinity);
  check_int "clamp high" 4 (cores 9.);
  check_int "clamp low" 1 (cores (-2.));
  check_int "round" 3 (cores 2.6)

let test_manager_apply_cluster () =
  let soc = Soc.create ~qos:Benchmarks.x264 () in
  Manager.apply_cluster soc 0 [| 1.26; 2.4 |] ~at:0;
  check_int "quantized OPP applied" 1300 (Soc.frequency soc 0);
  check_int "rounded cores applied" 2 (Soc.active_cores soc 0);
  (* NaN commands must land on the conservative end, not on
     int_of_float garbage.  The pair is read at [~at]. *)
  Manager.apply_cluster soc 0 [| 2.; 4.; nan; nan |] ~at:2;
  check_int "nan freq -> min OPP" 200 (Soc.frequency soc 0);
  check_int "nan cores -> 1" 1 (Soc.active_cores soc 0)

let test_supervisor_nonfinite_guard () =
  let _, commands = make_mock () in
  let sup = Supervisor.create ~commands ~envelope:5.0 () in
  Supervisor.step sup ~qos:60. ~qos_ref:60. ~power:3.0 ~envelope:5.0;
  let state = Supervisor.state sup in
  (* A NaN sample must not poison the band logic (every NaN comparison
     is false, which used to hold state forever). *)
  Supervisor.step sup ~qos:nan ~qos_ref:60. ~power:nan ~envelope:5.0;
  check_string "nan sample dropped" state (Supervisor.state sup);
  check_bool "budgets stay finite" true
    (Float.is_finite (Supervisor.power_ref sup 0)
    && Float.is_finite (Supervisor.power_ref sup 1));
  (* and the supervisor must still react to the next real sample *)
  Supervisor.step sup ~qos:60. ~qos_ref:60. ~power:5.5 ~envelope:5.0;
  check_string "still responsive" "power" (Supervisor.gains_mode sup)

(* ------------------------------------------------------------------ *)
(* End-to-end fault scenarios                                          *)
(* ------------------------------------------------------------------ *)

let faulted_cfg fault ~start_s ~stop_s =
  let phase name ~duration_s ~envelope ~background_tasks ~faults =
    {
      Scenario.phase_name = name;
      duration_s;
      envelope;
      background_tasks;
      phase_faults = faults;
    }
  in
  {
    (Scenario.default_config Benchmarks.x264) with
    Scenario.phases =
      [
        phase "safe" ~duration_s:3. ~envelope:5.0 ~background_tasks:0
          ~faults:[ Faults.injection fault ~start_s ~stop_s ];
        phase "stress" ~duration_s:4. ~envelope:3.5 ~background_tasks:16
          ~faults:[];
        phase "recovery" ~duration_s:5. ~envelope:5.0 ~background_tasks:0
          ~faults:[];
      ];
  }

let run_guarded fault ~start_s ~stop_s =
  let cfg = faulted_cfg fault ~start_s ~stop_s in
  let guards = Guarded.create ~clusters:2 () in
  let manager, _ = Spectr_manager.make ~guards () in
  (Scenario.run ~manager cfg, guards)

let check_guarded_rides_out fault ~start_s ~stop_s =
  let trace, guards = run_guarded fault ~start_s ~stop_s in
  let time = Trace.column trace "time" in
  let true_power = Trace.column trace "true_power" in
  let envelope = Trace.column trace "envelope" in
  (* The watchdog must have tripped... *)
  let spans = Guarded.degradation_spans guards in
  check_bool "watchdog engaged" true (spans <> []);
  let entered, exited = List.hd spans in
  (* ... and once engaged, the open-loop fallback keeps true power under
     the envelope (0.3 s of grace for the platform to settle). *)
  let fault_stop = Float.min stop_s (match exited with Some t -> t | None -> infinity) in
  Array.iteri
    (fun i t ->
      if t >= entered +. 0.3 && t < fault_stop then
        check_bool
          (Printf.sprintf "power %.2f <= envelope %.2f at t=%.2f"
             true_power.(i) envelope.(i) t)
          true
          (true_power.(i) <= envelope.(i) *. 1.05))
    time;
  (* Control is handed back after the fault clears, in finite time. *)
  (match exited with
  | Some t ->
      check_bool "handed back after clearance" true (t > entered)
  | None -> Alcotest.fail "never recovered from degradation");
  (* And the run as a whole re-complies after clearance. *)
  let margin = Array.mapi (fun i p -> p -. (envelope.(i) *. 1.02)) true_power in
  let after = ref 0 in
  Array.iteri (fun i t -> if t < stop_s then after := i + 1) time;
  match Metrics.recovery_time ~envelope:0. ~dt:0.05 ~after:!after margin with
  | Some t -> check_bool "finite power recovery" true (Float.is_finite t)
  | None -> Alcotest.fail "power never re-complied"

let test_guarded_rides_out_power_dropout () =
  check_guarded_rides_out (Faults.Dropout Power) ~start_s:3.5 ~stop_s:6.5

let test_guarded_rides_out_heartbeat_stall () =
  check_guarded_rides_out Faults.Heartbeat_stall ~start_s:3.5 ~stop_s:6.5

let test_guarded_rides_out_stuck_dvfs () =
  check_guarded_rides_out Faults.Dvfs_stuck ~start_s:1.0 ~stop_s:6.5

let test_unguarded_spectr_fooled_by_dropout () =
  (* The contrast the robustness bench is built on: without the guards,
     a dead power sensor reads "infinite headroom" and SPECTR chases the
     unachievable QoS reference straight through the envelope. *)
  let cfg = faulted_cfg (Faults.Dropout Power) ~start_s:3.5 ~stop_s:6.5 in
  let manager, _ = Spectr_manager.make () in
  let trace = Scenario.run ~manager cfg in
  let time = Trace.column trace "time" in
  let true_power = Trace.column trace "true_power" in
  let envelope = Trace.column trace "envelope" in
  let excess = ref 0. in
  Array.iteri
    (fun i t ->
      if t >= 3.5 && true_power.(i) > envelope.(i) *. 1.05 then
        excess := !excess +. 0.05)
    time;
  check_bool "sustained violation while blind" true (!excess > 1.0)

let test_faulted_trace_columns () =
  let cfg = faulted_cfg (Faults.Dropout Power) ~start_s:3.5 ~stop_s:6.5 in
  let manager, _ = Spectr_manager.make () in
  let trace = Scenario.run ~manager cfg in
  check_bool "fault columns" true
    (Trace.columns trace = Scenario.fault_columns);
  let faults_col = Trace.column trace "faults" in
  let time = Trace.column trace "time" in
  Array.iteri
    (fun i t ->
      let expect = if t >= 3.5 && t < 6.5 then 1. else 0. in
      check_float (Printf.sprintf "active count at %.2f" t) expect
        faults_col.(i))
    time

let test_unfaulted_trace_unchanged () =
  (* No schedule -> no faults machinery, no extra columns: the paper
     scenarios reproduce exactly as before this layer existed. *)
  let cfg = Scenario.default_config Benchmarks.x264 in
  let manager, _ = Spectr_manager.make () in
  let trace = Scenario.run ~manager cfg in
  check_bool "base columns only" true (Trace.columns trace = Scenario.columns)

(* ------------------------------------------------------------------ *)
(* Recovery metrics                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_recovery_time () =
  let power = [| 6.; 6.; 6.; 4.; 6.; 4.; 4.; 4. |] in
  (match Metrics.recovery_time ~envelope:5. ~dt:0.1 ~after:2 power with
  | Some t -> check_float "after last violation" 0.3 t
  | None -> Alcotest.fail "recovers");
  check_bool "never recovers" true
    (Metrics.recovery_time ~envelope:5. ~dt:0.1 ~after:0 [| 6.; 6. |] = None);
  check_bool "empty tail" true
    (Metrics.recovery_time ~envelope:5. ~dt:0.1 ~after:9 power = None)

let test_metrics_empty_phase () =
  (* Regression: a phase shorter than half a controller period records
     zero samples; per_phase used to divide by its empty sample range.
     Such phases must simply be omitted. *)
  let cfg = Scenario.default_config Benchmarks.x264 in
  let template = List.hd cfg.Scenario.phases in
  let phase name duration_s =
    { template with Scenario.phase_name = name; duration_s }
  in
  let cfg =
    {
      cfg with
      Scenario.phases = [ phase "lead" 0.5; phase "blink" 0.01; phase "tail" 0.5 ];
    }
  in
  (* 0.01 s < controller_period / 2 = 0.025 s: rounds to zero samples. *)
  check_bool "blink below half period" true
    (0.01 < (cfg.Scenario.controller_period /. 2.));
  let trace = Scenario.run ~manager:(Mm.make_pow ~platform:exynos ()) cfg in
  let metrics = Metrics.per_phase ~trace ~config:cfg in
  check_int "zero-length phase omitted" 2 (List.length metrics);
  check_bool "surviving phases keep their order" true
    (List.map (fun m -> m.Metrics.phase_name) metrics = [ "lead"; "tail" ])

let test_metrics_envelope_step () =
  (* Regression: per_phase read the envelope once from the slice's first
     sample, so a phase whose envelope steps mid-phase (chaos fault
     windows, fleet cap re-budgets) judged every power metric against a
     stale cap.  Build a 10-sample phase whose envelope drops from 5 W
     to 3 W at sample 5 while power lags the drop by two samples. *)
  let dt = 0.05 in
  let cfg = Scenario.default_config Benchmarks.x264 in
  let template = List.hd cfg.Scenario.phases in
  let cfg =
    {
      cfg with
      Scenario.phases =
        [ { template with Scenario.phase_name = "step"; duration_s = 10. *. dt } ];
      controller_period = dt;
    }
  in
  let trace =
    Trace.create ~cap:10 ~columns:Scenario.columns ()
  in
  let ncols = List.length Scenario.columns in
  for i = 0 to 9 do
    let row = Array.make ncols 0. in
    row.(0) <- float_of_int i *. dt;
    row.(1) <- cfg.Scenario.qos_ref;
    row.(2) <- cfg.Scenario.qos_ref;
    row.(3) <- (if i < 7 then 4.9 else 2.9);
    row.(4) <- (if i < 5 then 5.0 else 3.0);
    Trace.add trace row
  done;
  let m = List.hd (Metrics.per_phase ~trace ~config:cfg) in
  (* Samples 5 and 6 hold 4.9 W against the stepped-down 3 W cap: the
     phase first sustains compliance at sample 7.  The old
     first-sample-envelope code saw no violation at all (4.9 <= 5.1)
     and reported Some 0. *)
  (match m.Metrics.compliance_time_s with
  | Some t -> check_float "compliance honors the mid-phase step" 0.35 t
  | None -> Alcotest.fail "phase complies after the two-sample lag");
  (* Tail = last 4 samples; per-tick references are all 3 W there, so
     the steady-state error is 100 * ((3-4.9)+3*(3-2.9))/4 / 3 = -40/3 %.
     The old code computed +32 % against the stale 5 W cap. *)
  check_bool "power error vs per-tick envelope" true
    (Float.abs (m.Metrics.power_error_pct -. (-40. /. 3.)) < 1e-6)

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let test_metrics_find_diagnostics () =
  (* A bad phase name must not surface as a bare Not_found: the message
     names both the missing phase and the phases available. *)
  let phase name =
    {
      Metrics.phase_name = name;
      qos_error_pct = 0.;
      power_error_pct = 0.;
      power_settling_s = None;
      compliance_time_s = None;
      energy_j = 0.;
      energy_per_heartbeat_j = 0.;
    }
  in
  (match Metrics.qos_of [ phase "safe"; phase "emergency" ] "disturbance" with
  | exception Invalid_argument msg ->
      check_bool "names the missing phase" true (contains msg "disturbance");
      check_bool "lists available phases" true
        (contains msg "safe" && contains msg "emergency")
  | _ -> Alcotest.fail "raises Invalid_argument");
  match Metrics.power_of [] "any" with
  | exception Invalid_argument msg ->
      check_bool "empty list says none" true (contains msg "none")
  | _ -> Alcotest.fail "raises Invalid_argument on empty list"

let test_metrics_compliance_boundaries () =
  let compliance envelope power =
    Metrics.compliance_time_series ~envelope ~dt:0.1 power
  in
  (* Never-violating slice: compliant from t = 0 exactly. *)
  check_bool "never violating -> Some 0." true
    (compliance [| 5.; 5.; 5. |] [| 4.; 4.; 4. |] = Some 0.);
  (* Violation at the last sample: compliance is never sustained. *)
  check_bool "last-sample violation -> None" true
    (compliance [| 5.; 5.; 5. |] [| 4.; 4.; 6. |] = None);
  (* The allowance boundary: 5 × 1.02 complies, the next float up does
     not. *)
  let limit = 5. *. Metrics.power_allowance in
  check_bool "at the allowance -> Some 0." true
    (compliance [| 5.; 5. |] [| 4.; limit |] = Some 0.);
  check_bool "just over -> None" true
    (compliance [| 5.; 5. |] [| 4.; Float.succ limit |] = None);
  (* A stepping envelope is judged sample by sample. *)
  check_bool "stepped envelope" true
    (compliance [| 5.; 3.; 3.; 3. |] [| 4.; 4.; 2.; 2. |] = Some 0.2);
  (* The shape is validated. *)
  match
    Metrics.compliance_time_series ~envelope:[| 5. |] ~dt:0.1 [| 4.; 4. |]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch raises"

let test_fault_schedule_order () =
  (* Regression: fault_schedule used a quadratic [acc @ ...] append that
     also made the output order an accident of the implementation.  The
     schedule must list injections in phase order, preserving each
     phase's own injection order, with windows shifted to absolute
     time. *)
  let cfg = Scenario.default_config Benchmarks.x264 in
  let template = List.hd cfg.Scenario.phases in
  let phase name duration_s faults =
    {
      template with
      Scenario.phase_name = name;
      duration_s;
      phase_faults = faults;
    }
  in
  let inj kind start_s stop_s = Faults.injection kind ~start_s ~stop_s in
  let cfg =
    {
      cfg with
      Scenario.phases =
        [
          phase "one" 1.0
            [
              inj (Faults.Dropout Faults.Power) 0.1 0.2;
              inj Faults.Dvfs_stuck 0.3 0.4;
            ];
          phase "two" 2.0 [];
          phase "three" 1.0 [ inj Faults.Heartbeat_stall 0.0 0.5 ];
        ];
    }
  in
  let expect =
    [
      inj (Faults.Dropout Faults.Power) 0.1 0.2;
      inj Faults.Dvfs_stuck 0.3 0.4;
      inj Faults.Heartbeat_stall 3.0 3.5;
    ]
  in
  check_bool "phase order, absolute windows" true
    (Scenario.fault_schedule cfg = expect)

(* ------------------------------------------------------------------ *)
(* FDIR: detection and isolation                                       *)
(* ------------------------------------------------------------------ *)

(* Drive a detector with [n] identical evidence ticks. *)
let feed_fdir fd n ~qos ~powers ~ips =
  for _ = 1 to n do
    Fdir.observe fd ~qos ~powers ~ips
  done

let test_fdir_isolates_dead_power_sensor () =
  let fd = Fdir.create ~k:2 ~host:0 () in
  (* Cluster 1's power reads exactly 0 while its IPS aggregate proves it
     still executes: dead sensor, not dead cluster. *)
  feed_fdir fd 60 ~qos:60. ~powers:[| 2.; 0. |] ~ips:[| 0.; 3e9 |];
  (match Fdir.poll fd with
  | [ Fdir.Power_sensor_down 1 ] -> ()
  | l -> Alcotest.failf "expected [Power_sensor_down 1], got %d findings"
           (List.length l));
  check_bool "emitted exactly once" true (Fdir.poll fd = [])

let test_fdir_isolates_dead_cluster () =
  let fd = Fdir.create ~k:2 ~host:0 () in
  (* Zero power and zero throughput: the cluster itself is gone. *)
  feed_fdir fd 60 ~qos:60. ~powers:[| 2.; 0. |] ~ips:[| 0.; 0. |];
  match Fdir.poll fd with
  | [ Fdir.Cluster_down 1 ] -> ()
  | l ->
      Alcotest.failf "expected [Cluster_down 1], got %d findings"
        (List.length l)

let test_fdir_isolates_dead_qos_sensor () =
  let fd = Fdir.create ~k:2 ~host:0 () in
  (* Heartbeats gone while the host still draws power: blind QoS sensor. *)
  feed_fdir fd 60 ~qos:0. ~powers:[| 2.; 1. |] ~ips:[| 0.; 0.5e9 |];
  match Fdir.poll fd with
  | [ Fdir.Qos_sensor_down ] -> ()
  | _ -> Alcotest.fail "expected [Qos_sensor_down]"

let test_fdir_dead_host_subsumes_qos () =
  let fd = Fdir.create ~k:2 ~host:0 () in
  (* Host power AND heartbeats both permanently zero: one dead-host
     finding, not a spurious extra QoS-sensor verdict. *)
  feed_fdir fd 60 ~qos:0. ~powers:[| 0.; 1. |] ~ips:[| 0.; 0.5e9 |];
  match Fdir.poll fd with
  | [ Fdir.Cluster_down 0 ] -> ()
  | l ->
      Alcotest.failf "expected [Cluster_down 0] alone, got %d findings"
        (List.length l)

let test_fdir_latched_dvfs_and_transients () =
  let fd = Fdir.create ~k:2 ~host:0 () in
  (* A short mismatch burst (transient) must not latch... *)
  for _ = 1 to 10 do
    Fdir.note_actuation fd ~cluster:1 ~ok:false
  done;
  Fdir.note_actuation fd ~cluster:1 ~ok:true;
  check_bool "transient burst does not latch" true (Fdir.poll fd = []);
  (* ...a 60-tick one is a latched rail. *)
  for _ = 1 to 60 do
    Fdir.note_actuation fd ~cluster:1 ~ok:false
  done;
  (match Fdir.poll fd with
  | [ Fdir.Dvfs_latched 1 ] -> ()
  | _ -> Alcotest.fail "expected [Dvfs_latched 1]");
  (* Innovation residuals corroborate but never amputate on their own. *)
  for _ = 1 to 120 do
    Fdir.note_innovation fd ~cluster:0 ~norm:25.
  done;
  check_bool "residual flagged" true (Fdir.residual_flagged fd ~cluster:0);
  check_bool "residual alone emits no finding" true (Fdir.poll fd = [])

let test_fdir_validation () =
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check_bool "k < 1" true (raises (fun () -> Fdir.create ~k:0 ~host:0 ()));
  check_bool "host range" true (raises (fun () -> Fdir.create ~k:2 ~host:2 ()));
  let fd = Fdir.create ~k:2 ~host:0 () in
  check_bool "powers length" true
    (raises (fun () ->
         Fdir.observe fd ~qos:1. ~powers:[| 1. |] ~ips:[| 0.; 0. |]))

(* The counter primitive on its own: a streak raises at the onset,
   clears on the first miss after, and latches for good. *)
let test_persistence_stages () =
  let b = Persistence.create 2 in
  let step hit =
    Persistence.note b 1 hit;
    Persistence.transition b 1 ~onset:2 ~latch:4
  in
  let hits = [ true; true; true; false; true; true; true; true; false; true ] in
  check_bool "stage sequence" true
    (List.map step hits
    = Persistence.
        [
          Unchanged; Raised; Unchanged; Cleared; Unchanged; Raised; Unchanged;
          Latched; Unchanged; Unchanged;
        ]);
  check_int "latched streak keeps counting" 1 (Persistence.streak b 1);
  check_bool "latched stays flagged" true (Persistence.flagged b 1);
  check_bool "neighbour untouched" false (Persistence.flagged b 0);
  let snap = Persistence.copy b in
  Persistence.reset b 1;
  check_int "reset zeroes the streak" 0 (Persistence.streak b 1);
  Persistence.blit ~src:snap b;
  check_int "blit restores" 1 (Persistence.streak b 1);
  check_bool "blit checks lengths" true
    (match Persistence.blit ~src:(Persistence.create 3) b with
    | exception Invalid_argument _ -> true
    | () -> false)

(* ------------------------------------------------------------------ *)
(* FDIR and guard against the hand-rolled oracle                       *)
(* ------------------------------------------------------------------ *)

(* One control period of evidence as a manager feeds it: raw sensors to
   the detector and the guard, then per-cluster actuation readbacks and
   innovation residuals in a shuffled order, plus the occasional mask
   flip or checkpoint (save, then restore into a fresh instance).  Like a manager in fallback, the run skips the poll
   for whole segments, so checkpoints also carry pending findings. *)
type diff_tick = {
  d_now : float;
  d_qos : float;
  d_powers : float array;
  d_ips : float array;
  d_calls : (int * [ `Act of bool | `Innov of float ]) list;
  d_mask : (int * bool) option;
  d_poll : bool;
  d_checkpoint : bool;
}

(* A seeded stream of fault segments whose lengths cluster around the
   thresholds: 4-8 ticks (FDIR transient and guard trip at 6), 8-12
   (guard recovery at 10), 57-63 (FDIR latch at 60), or anything up to
   20.  Within a segment each channel is faulty with probability 1/4,
   in one of its fault modes. *)
let diff_stream seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n and noise () = Random.State.float rng 0.2 in
  let k = 2 + int 2 in
  let host = int k in
  let seg_len () =
    match int 4 with
    | 0 -> 4 + int 5
    | 1 -> 8 + int 5
    | 2 -> 57 + int 7
    | _ -> 1 + int 20
  in
  let faulty modes = if int 4 = 0 then int modes else -1 in
  let ticks = ref [] and now = ref 0. and n = ref 0 in
  let last_qos = ref 60. and last_pow = Array.make k 1.5 in
  while !n < 300 do
    let len = min (seg_len ()) (300 - !n) in
    let qos_mode = faulty 5 and pow_mode = Array.init k (fun _ -> faulty 4) in
    let ips_zero = Array.init k (fun _ -> int 4 = 0) in
    let act_bad = Array.init k (fun _ -> int 4 = 0) in
    let innov_high = Array.init k (fun _ -> int 4 = 0) in
    let poll = int 4 <> 0 in
    for _ = 1 to len do
      incr n;
      now := !now +. 0.05;
      let qos =
        match qos_mode with
        | 0 -> 0.
        | 1 -> nan
        | 2 -> 1e6
        | 3 -> !last_qos
        | 4 -> 60. +. (500. *. noise ())
        | _ -> 60. +. noise ()
      in
      last_qos := qos;
      let powers =
        Array.init k (fun i ->
            match pow_mode.(i) with
            | 0 -> 0.
            | 1 -> last_pow.(i)
            | 2 -> 6. +. noise ()
            | 3 -> infinity
            | _ -> 1.5 +. noise ())
      in
      Array.blit powers 0 last_pow 0 k;
      let ips =
        Array.init k (fun i -> if ips_zero.(i) then 0. else 1e9 +. (1e7 *. noise ()))
      in
      let calls =
        List.concat_map
          (fun c ->
            let ok = if act_bad.(c) then int 10 = 0 else int 30 <> 0 in
            let norm =
              match int 8 with
              | 0 -> 4.0
              | _ when innov_high.(c) -> 4. +. (20. *. noise ())
              | _ -> 10. *. noise ()
            in
            [ (int 1000, (c, `Act ok)); (int 1000, (c, `Innov norm)) ])
          (List.init k Fun.id)
        |> List.sort compare |> List.map snd
      in
      ticks :=
        {
          d_now = !now;
          d_qos = qos;
          d_powers = powers;
          d_ips = ips;
          d_calls = calls;
          d_mask = (if int 50 = 0 then Some (int k, int 2 = 0) else None);
          d_poll = poll;
          d_checkpoint = int 33 = 0;
        }
        :: !ticks
    done
  done;
  (k, host, List.rev !ticks)

(* Everything observable of one tick, floats bit-exact. *)
let diff_line b n ~qos ~powers ~healthy ~degraded ~findings ~flags =
  Printf.bprintf b "%d q=%h p=%s h=%b d=%b f=%s r=%s\n" n qos
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") powers)))
    healthy degraded
    (String.concat "," (List.map Fdir.finding_channel findings))
    (String.concat "," (List.map string_of_bool flags))

(* The run's tail: guard bookkeeping, the fdir.*/guard.* counters, the
   fallback gauge and span histogram, and the decision log. *)
let diff_tail b ~spans ~substituted ~total ~fb_ticks =
  List.iter
    (fun (e, x) ->
      Printf.bprintf b "span %h %s\n" e
        (match x with Some x -> Printf.sprintf "%h" x | None -> "open"))
    spans;
  Printf.bprintf b "substituted %d total %d fallback %d\n" substituted total
    fb_ticks;
  List.iter
    (fun (name, v) ->
      if String.starts_with ~prefix:"fdir." name
         || String.starts_with ~prefix:"guard." name
      then Printf.bprintf b "%s %d\n" name v)
    (Spectr_obs.Counters.snapshot ());
  let h = Spectr_obs.Histogram.histogram "guard.fallback_span_ticks" in
  Printf.bprintf b "gauge %h spans %d mean %h max %d\n"
    (Spectr_obs.Counters.gauge_value
       (Spectr_obs.Counters.gauge "guard.fallback_ticks"))
    (Spectr_obs.Histogram.count h) (Spectr_obs.Histogram.mean_ns h)
    (Spectr_obs.Histogram.max_ns h);
  Buffer.add_string b (Spectr_obs.Decision_log.to_jsonl ())

let diff_run_library (k, host, ticks) =
  Spectr_obs.reset ();
  let b = Buffer.create 65536 in
  let fd = ref (Fdir.create ~k ~host ()) and g = ref (Guarded.create ~clusters:k ()) in
  let saved = ref None in
  List.iteri
    (fun n tk ->
      Option.iter (fun (c, on) -> Guarded.set_power_masked !g ~cluster:c on) tk.d_mask;
      Fdir.observe !fd ~qos:tk.d_qos ~powers:tk.d_powers ~ips:tk.d_ips;
      let f, healthy =
        filter_healthy !g ~now:tk.d_now ~qos:tk.d_qos ~powers:tk.d_powers
      in
      let qos = f.Guarded.qos and powers = Array.copy (Guarded.powers !g) in
      List.iter
        (function
          | c, `Act ok ->
              Guarded.note_actuation !g ~now:tk.d_now ~ok;
              Fdir.note_actuation !fd ~cluster:c ~ok
          | c, `Innov norm -> Fdir.note_innovation !fd ~cluster:c ~norm)
        tk.d_calls;
      diff_line b n ~qos ~powers ~healthy ~degraded:(Guarded.degraded !g)
        ~findings:(if tk.d_poll then Fdir.poll !fd else [])
        ~flags:(List.init k (fun c -> Fdir.residual_flagged !fd ~cluster:c));
      if tk.d_checkpoint then begin
        (* The first checkpoint allocates the saved states, later ones
           overwrite them in place.  The abandoned instance takes one
           more junk tick after the save: a saved state sharing its
           state would carry it along. *)
        let fs, gs =
          match !saved with
          | Some (fs, gs) ->
              Fdir.copy !fd fs ~restore:false;
              Guarded.copy !g gs ~restore:false;
              (fs, gs)
          | None -> (Fdir.saved !fd, Guarded.saved !g)
        in
        saved := Some (fs, gs);
        let junk = Array.make k 0. in
        Fdir.observe !fd ~qos:0. ~powers:junk ~ips:junk;
        ignore (Guarded.filter !g ~now:tk.d_now ~qos:0. ~powers:junk);
        fd := Fdir.create ~k ~host ();
        Fdir.copy !fd fs ~restore:true;
        g := Guarded.create ~clusters:k ();
        Guarded.copy !g gs ~restore:true
      end)
    ticks;
  diff_tail b ~spans:(Guarded.degradation_spans !g)
    ~substituted:(Guarded.substituted_samples !g) ~total:(Guarded.total_samples !g)
    ~fb_ticks:(Guarded.fallback_ticks !g);
  Buffer.contents b

let diff_run_oracle (k, host, ticks) =
  let module Of = Fdir_oracle.Fdir in
  let module Og = Fdir_oracle.Guarded in
  Spectr_obs.reset ();
  let b = Buffer.create 65536 in
  let fd = ref (Of.create ~k ~host) and g = ref (Og.create ~clusters:k) in
  List.iteri
    (fun n tk ->
      Option.iter (fun (c, on) -> Og.set_power_masked !g ~cluster:c on) tk.d_mask;
      Of.observe !fd ~qos:tk.d_qos ~powers:tk.d_powers ~ips:tk.d_ips;
      let qos, powers, healthy =
        Og.filter !g ~now:tk.d_now ~qos:tk.d_qos ~powers:tk.d_powers
      in
      List.iter
        (function
          | c, `Act ok ->
              Og.note_actuation !g ~now:tk.d_now ~ok;
              Of.note_actuation !fd ~cluster:c ~ok
          | c, `Innov norm -> Of.note_innovation !fd ~cluster:c ~norm)
        tk.d_calls;
      diff_line b n ~qos ~powers ~healthy ~degraded:!g.Og.is_degraded
        ~findings:(if tk.d_poll then Of.poll !fd else [])
        ~flags:(List.init k (fun c -> Of.residual_flagged !fd ~cluster:c));
      if tk.d_checkpoint then begin
        let fs = Of.copy !fd and gs = Og.copy !g in
        let junk = Array.make k 0. in
        Of.observe !fd ~qos:0. ~powers:junk ~ips:junk;
        ignore (Og.filter !g ~now:tk.d_now ~qos:0. ~powers:junk);
        fd := fs;
        g := gs
      end)
    ticks;
  let g = !g in
  diff_tail b ~spans:(List.rev g.Og.spans) ~substituted:g.Og.substituted
    ~total:g.Og.total ~fb_ticks:g.Og.fb_ticks;
  Buffer.contents b

(* 240 seeded streams, obs on: every tick's filtered values (bitwise),
   health, degraded flag, findings in order and residual flags, then the
   counters and the decision-log JSONL, must match the oracle's. *)
let test_fdir_guarded_match_oracle () =
  Spectr_obs.enable ();
  Fun.protect ~finally:Spectr_obs.disable (fun () ->
      let latched = ref 0 and tripped = ref 0 in
      for seed = 1 to 240 do
        let stream = diff_stream seed in
        let expect = diff_run_oracle stream and got = diff_run_library stream in
        if expect <> got then begin
          let e = String.split_on_char '\n' expect
          and g = String.split_on_char '\n' got in
          let rec first = function
            | x :: xs, y :: ys -> if x = y then first (xs, ys) else (x, y)
            | x :: _, [] -> (x, "<end>")
            | [], y :: _ -> ("<end>", y)
            | [], [] -> ("", "")
          in
          let x, y = first (e, g) in
          Alcotest.failf "seed %d diverges:\n  oracle:  %s\n  library: %s" seed x y
        end;
        if contains got "\"verdict\":\"permanent\"" then incr latched;
        if contains got "\"entered\":true" then incr tripped
      done;
      (* The streams reach both thresholds often enough to mean it. *)
      check_bool "many streams latch a permanent verdict" true (!latched > 60);
      check_bool "many streams trip the watchdog" true (!tripped > 60))

(* ------------------------------------------------------------------ *)
(* Guarded fallback-duration metrics                                   *)
(* ------------------------------------------------------------------ *)

(* Satellite: two trip/recover cycles must report two bounded fallback
   spans through the tick accounting, the [guard.fallback_ticks] gauge
   and the [guard.fallback_span_ticks] histogram. *)
let test_guarded_fallback_span_metrics () =
  Spectr_obs.enable ();
  Fun.protect ~finally:Spectr_obs.disable (fun () ->
      let h = Spectr_obs.Histogram.histogram "guard.fallback_span_ticks" in
      let gauge = Spectr_obs.Counters.gauge "guard.fallback_ticks" in
      let spans_before = Spectr_obs.Histogram.count h in
      let g = warmed_guards () in
      let cfg = Guarded.thresholds in
      let now = ref 0.25 in
      let advance () =
        now := !now +. 0.05;
        !now
      in
      let cycle () =
        for _ = 1 to cfg.Guarded.trip_count do
          ignore (Guarded.filter g ~now:(advance ()) ~qos:0. ~powers:[| 2.; 1. |])
        done;
        check_bool "tripped" true (Guarded.degraded g);
        let n = ref 0 in
        while Guarded.degraded g && !n < 4 * cfg.Guarded.recover_count do
          incr n;
          ignore (healthy_step g ~now:(advance ()) !n)
        done;
        check_bool "recovered" false (Guarded.degraded g)
      in
      cycle ();
      let first_span = Guarded.fallback_ticks g in
      cycle ();
      let total = Guarded.fallback_ticks g in
      check_bool "two completed spans" true
        (List.length (Guarded.recovery_times g) = 2);
      check_int "histogram saw both spans" (spans_before + 2)
        (Spectr_obs.Histogram.count h);
      (* Each span is bounded: it cannot exceed the trip tick plus the
         recovery dwell. *)
      let bound = cfg.Guarded.recover_count + cfg.Guarded.trip_count in
      check_bool "first span bounded" true
        (first_span > 0 && first_span <= bound);
      check_bool "second span bounded" true
        (total - first_span > 0 && total - first_span <= bound);
      check_bool "gauge tracks cumulative ticks" true
        (Spectr_obs.Counters.gauge_value gauge = float_of_int total))

(* ------------------------------------------------------------------ *)
(* Degraded-mode reconfiguration (SPECTR+R)                            *)
(* ------------------------------------------------------------------ *)

let reconfig_cfg ?(bg = 0) fault ~start_s =
  let phase name ~duration_s ~envelope ~background_tasks ~faults =
    {
      Scenario.phase_name = name;
      duration_s;
      envelope;
      background_tasks;
      phase_faults = faults;
    }
  in
  {
    (Scenario.default_config Benchmarks.x264) with
    Scenario.phases =
      [
        phase "healthy-then-fault" ~duration_s:8. ~envelope:5.0
          ~background_tasks:bg
          ~faults:[ Faults.permanent fault ~start_s ];
        phase "disturb" ~duration_s:4. ~envelope:5.0 ~background_tasks:8
          ~faults:[];
      ];
  }

let run_reconfigurable ?bg fault ~start_s =
  let cfg = reconfig_cfg ?bg fault ~start_s in
  let manager, h = Spectr_manager.make_reconfigurable () in
  let trace = Scenario.run ~manager cfg in
  (trace, h)

(* Post-settle safety: once detection (3.0 s), the swap window and the
   guard's recovery dwell have drained, true chip power must respect the
   envelope in the sense the robustness bench scores it — no sustained
   excess.  The capping switch reacts one supervisor period after a
   crossing, so single-OPP-step excursions of a tick or two are part of
   nominal closed-loop behaviour (they exist on the healthy platform
   too); what reconfiguration must guarantee is that they stay bounded
   and never accumulate. *)
let check_post_settle_safety trace ~settle_s =
  let time = Trace.column trace "time" in
  let true_power = Trace.column trace "true_power" in
  let envelope = Trace.column trace "envelope" in
  let excess_s = ref 0. in
  Array.iteri
    (fun i t ->
      if t >= settle_s then begin
        check_bool
          (Printf.sprintf "power %.2f within hard bound at t=%.2f"
             true_power.(i) t)
          true
          (true_power.(i) <= envelope.(i) *. 1.15);
        if true_power.(i) > envelope.(i) *. 1.05 then
          excess_s := !excess_s +. 0.05
      end)
    time;
  check_bool
    (Printf.sprintf "no sustained post-settle excess (%.2f s)" !excess_s)
    true (!excess_s <= 0.5)

let mean_qos_after trace ~after_s =
  let time = Trace.column trace "time" in
  let qos = Trace.column trace "qos" in
  let sum = ref 0. and n = ref 0 in
  Array.iteri
    (fun i t ->
      if t >= after_s then begin
        sum := !sum +. qos.(i);
        incr n
      end)
    time;
  if !n = 0 then 0. else !sum /. float_of_int !n

let test_reconfig_cluster_dead () =
  let trace, h = run_reconfigurable (Faults.Cluster_dead 1) ~start_s:2.0 in
  check_string "reconfigured" "reconfigured"
    (Spectr_manager.Reconfig.status_label (Spectr_manager.Reconfig.status h));
  check_int "one hot-swap" 1 (Spectr_manager.Reconfig.reconfigurations h);
  check_bool "cluster 1 excluded" true
    (Spectr_manager.Reconfig.excluded_clusters h = [ 1 ]);
  let desc = Spectr_manager.Reconfig.platform h in
  check_int "one-cluster plant" 1 (Platform_desc.num_clusters desc);
  check_bool "degraded description named" true
    (String.length (Platform_desc.name desc) > String.length "exynos5422"
    && Platform_desc.name desc <> "exynos5422");
  check_bool "warm re-synthesis under a second" true
    (Spectr_manager.Reconfig.last_resynth_s h < 1.0);
  check_bool "supervisor follows the degraded plant" true
    (Supervisor.num_clusters (Spectr_manager.Reconfig.supervisor h) = 1);
  (* Fault at 2.0 s + 3.0 s detection + swap window + guard recovery:
     settled well before 7.0 s. *)
  check_post_settle_safety trace ~settle_s:7.0;
  (* Closed-loop QoS re-convergence: the host cluster alone still earns
     a live heartbeat rate, far above the open-loop floor. *)
  check_bool "QoS re-converged" true (mean_qos_after trace ~after_s:10.0 > 20.);
  check_bool "guard recovered after reconfiguration" false
    (Guarded.degraded (Spectr_manager.Reconfig.guard h))

let test_reconfig_beats_guarded_fallback () =
  (* The contrast SPECTR+R exists for: under a permanently dead cluster
     SPECTR+G never leaves the open-loop floor, SPECTR+R re-converges. *)
  let cfg = reconfig_cfg (Faults.Cluster_dead 1) ~start_s:2.0 in
  let guards = Guarded.create ~clusters:2 () in
  let manager, _ = Spectr_manager.make ~guards () in
  let trace_g = Scenario.run ~manager cfg in
  check_bool "SPECTR+G still in fallback at run end" true
    (Guarded.degraded guards);
  let _, h = run_reconfigurable (Faults.Cluster_dead 1) ~start_s:2.0 in
  check_bool "SPECTR+R closed the loop again" true
    (Spectr_manager.Reconfig.status h = Spectr_manager.Reconfig.Reconfigured);
  (* Same ladder, different last rung: both stayed safe, only +R gets
     QoS back. *)
  let qos_g = mean_qos_after trace_g ~after_s:10.0 in
  let trace_r, _ = run_reconfigurable (Faults.Cluster_dead 1) ~start_s:2.0 in
  let qos_r = mean_qos_after trace_r ~after_s:10.0 in
  check_bool
    (Printf.sprintf "+R QoS %.1f well above +G floor %.1f" qos_r qos_g)
    true
    (qos_r > qos_g *. 1.5)

let test_reconfig_power_sensor_dead () =
  (* Background work keeps cluster 1 demonstrably executing, so FDIR
     isolates the dead sensor (not the cluster) — the plant is still
     reconfigured around it, pinning the unobservable cluster to its
     floor. *)
  let trace, h =
    run_reconfigurable ~bg:8
      (Faults.Sensor_dead (Faults.Power_cluster 1))
      ~start_s:2.0
  in
  check_bool "reconfigured" true
    (Spectr_manager.Reconfig.status h = Spectr_manager.Reconfig.Reconfigured);
  check_bool "cluster 1 out of the plant" true
    (Spectr_manager.Reconfig.excluded_clusters h = [ 1 ]);
  check_post_settle_safety trace ~settle_s:7.0;
  check_bool "guard recovered" false
    (Guarded.degraded (Spectr_manager.Reconfig.guard h))

let test_reconfig_dvfs_latched () =
  let trace, h =
    run_reconfigurable Faults.Dvfs_stuck_permanent ~start_s:2.0
  in
  (* The latched rail hits every cluster; each gets its OPP table pinned
     and the plant is re-synthesized — no cluster is amputated. *)
  check_bool "reconfigured" true
    (Spectr_manager.Reconfig.status h = Spectr_manager.Reconfig.Reconfigured);
  check_bool "at least one hot-swap" true
    (Spectr_manager.Reconfig.reconfigurations h >= 1);
  check_bool "no cluster excluded" true
    (Spectr_manager.Reconfig.excluded_clusters h = []);
  check_post_settle_safety trace ~settle_s:7.0;
  check_bool "guard recovered (latched rail is the expectation now)" false
    (Guarded.degraded (Spectr_manager.Reconfig.guard h))

let test_reconfig_host_dead_falls_back () =
  let trace, h = run_reconfigurable (Faults.Cluster_dead 0) ~start_s:2.0 in
  check_bool "permanent fallback" true
    (Spectr_manager.Reconfig.status h = Spectr_manager.Reconfig.Fallback);
  check_int "no hot-swap" 0 (Spectr_manager.Reconfig.reconfigurations h);
  (* A dead host is unrecoverable, but the floor must still be safe. *)
  check_post_settle_safety trace ~settle_s:7.0

let test_reconfig_no_fault_is_nominal () =
  (* Without a permanent fault the engine must stay on the boot rung
     with zero reconfigurations — the detector must not false-positive
     on a healthy closed-loop run. *)
  let cfg = Scenario.default_config Benchmarks.x264 in
  let manager, h = Spectr_manager.make_reconfigurable () in
  let _ = Scenario.run ~manager cfg in
  check_bool "nominal" true
    (Spectr_manager.Reconfig.status h = Spectr_manager.Reconfig.Nominal);
  check_int "no reconfigurations" 0
    (Spectr_manager.Reconfig.reconfigurations h);
  check_bool "nothing excluded" true
    (Spectr_manager.Reconfig.excluded_clusters h = [])

let test_supervisor_adopt_mapping () =
  (* The state-mapping rule in isolation: budgets carry by name (the
     removed cluster's allocation is dropped), capping mode carries by
     replay, and the result lands in a legal state of the new
     automaton. *)
  let noop =
    { Supervisor.switch_gains = (fun _ -> ()); set_power_ref = (fun _ _ -> ()) }
  in
  let healthy = Platform_desc.exynos5422 in
  let old_sup = Supervisor.create ~platform:healthy ~commands:noop ~envelope:5.0 () in
  (* Drive the old supervisor into capping mode. *)
  Supervisor.step old_sup ~qos:60. ~qos_ref:60. ~power:5.6 ~envelope:5.0;
  check_string "old supervisor capping" "power" (Supervisor.gains_mode old_sup);
  let degraded = Platform_desc.degrade healthy (Platform_desc.Remove_cluster 1) in
  let new_sup =
    Supervisor.create ~platform:degraded ~commands:noop ~envelope:5.0 ()
  in
  Supervisor.adopt new_sup ~prev:old_sup;
  check_string "capping mode carried" "power" (Supervisor.gains_mode new_sup);
  check_bool "host budget carried within clamps" true
    (let v = Supervisor.power_ref new_sup 0 in
     Float.is_finite v && v > 0.);
  check_string "outgoing supervisor only read" "power"
    (Supervisor.gains_mode old_sup)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "spectr_core"
    [
      ( "events",
        [
          Alcotest.test_case "controllability" `Quick
            test_events_controllability;
          Alcotest.test_case "lookup" `Quick test_events_lookup;
        ] );
      ( "plant-spec",
        [
          Alcotest.test_case "qos management shape" `Quick
            test_plant_qos_management_shape;
          Alcotest.test_case "power capping shape" `Quick
            test_plant_power_capping_shape;
          Alcotest.test_case "composition" `Quick test_plant_composed;
          Alcotest.test_case "spec shape" `Quick test_spec_shape;
          Alcotest.test_case "spec forbids increase when capped" `Quick
            test_spec_forbids_increase_when_capped;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "verified properties" `Quick
            test_synthesize_properties;
          Alcotest.test_case "disables increase when capped" `Quick
            test_synthesized_supervisor_disables_increase_when_capped;
          Alcotest.test_case "recovery path" `Quick
            test_synthesized_supervisor_can_recover;
          Alcotest.test_case "stats pinned" `Quick test_synthesis_stats_pinned;
          Alcotest.test_case "uncontrollable worklist" `Quick
            test_synthesis_uncontrollable_worklist;
          Alcotest.test_case "pinned pre-refactor fixture" `Quick
            test_supervisor_pinned_fixture;
          Alcotest.test_case "supcon pins the case-study supervisor" `Quick
            test_supcon_pins_case_study;
        ] );
      ( "platform-synthesis",
        [
          Alcotest.test_case "N-cluster legality" `Quick
            test_platform_synthesis_legal;
          Alcotest.test_case "event families" `Quick
            test_platform_event_families;
          Alcotest.test_case "exynos structural digests" `Quick
            test_exynos_structural_digests;
          Alcotest.test_case "pixel8pro and k4 structural digests" `Quick
            test_platform_structural_digests;
          Alcotest.test_case "pixel8pro event flow" `Quick
            test_platform_event_flow;
          Alcotest.test_case "plant memo identity" `Quick
            test_plant_memo_identity;
        ] );
      ( "supervisor-runtime",
        [
          Alcotest.test_case "initial budgets" `Quick
            test_supervisor_initial_budgets;
          Alcotest.test_case "validation" `Quick test_supervisor_validation;
          Alcotest.test_case "emergency gain switch" `Quick
            test_supervisor_emergency_switches_gains;
          Alcotest.test_case "recovery to qos mode" `Quick
            test_supervisor_recovers_to_qos_mode;
          Alcotest.test_case "raises budget on miss" `Quick
            test_supervisor_raises_budget_on_qos_miss;
          Alcotest.test_case "lowers budget on surplus" `Quick
            test_supervisor_lowers_budget_on_qos_surplus;
          Alcotest.test_case "budget cap" `Quick
            test_supervisor_budget_cap_respects_envelope;
          Alcotest.test_case "envelope drop reclamps" `Quick
            test_supervisor_envelope_drop_reclamps;
          Alcotest.test_case "critical cut" `Quick test_supervisor_critical_cut;
          Alcotest.test_case "never stuck" `Quick test_supervisor_state_never_stuck;
          Alcotest.test_case "budget invariants (random walk)" `Quick
            test_supervisor_budget_invariants_random_walk;
          Alcotest.test_case "scenario deterministic" `Slow
            test_scenario_deterministic;
        ] );
      ( "design-flow",
        [
          Alcotest.test_case "big 2x2 identifiable" `Slow
            test_design_flow_big_identifiable;
          Alcotest.test_case "identifiable verdicts on demand" `Slow
            test_design_flow_identifiable_verdicts;
          Alcotest.test_case "10x10 worse than 2x2" `Slow
            test_design_flow_large_worse_than_small;
          Alcotest.test_case "gain design" `Slow test_design_flow_gains;
          Alcotest.test_case "bad goal" `Slow test_design_flow_bad_goal;
        ] );
      ( "ops-cost",
        [
          Alcotest.test_case "dims" `Quick test_ops_cost_dims;
          Alcotest.test_case "monotone" `Quick test_ops_cost_monotone_in_cores;
          Alcotest.test_case "order insignificance" `Quick
            test_ops_cost_order_insignificant_at_scale;
          Alcotest.test_case "figure magnitude" `Quick test_ops_cost_magnitude;
          Alcotest.test_case "invocation count" `Quick test_ops_cost_invocation;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "trace shape" `Slow test_scenario_trace_shape;
          Alcotest.test_case "safe phase QoS" `Slow test_safe_phase_qos;
          Alcotest.test_case "safe phase efficiency split" `Slow
            test_safe_phase_efficiency_split;
          Alcotest.test_case "emergency adaptation" `Slow
            test_emergency_phase_all_adapt;
          Alcotest.test_case "emergency compliance speed" `Slow
            test_emergency_spectr_fast_compliance;
          Alcotest.test_case "disturbance phase" `Slow test_disturbance_phase;
          Alcotest.test_case "SPECTR adapts priorities" `Slow
            test_spectr_adapts_priorities;
          Alcotest.test_case "SPECTR energy efficiency" `Slow
            test_spectr_energy_efficiency;
          Alcotest.test_case "gain-scheduling ablation" `Slow
            test_gain_scheduling_ablation;
          Alcotest.test_case "divisor validation" `Quick
            test_supervisor_divisor_validation;
          Alcotest.test_case "thermal governor" `Quick test_thermal_governor;
          Alcotest.test_case "thermal governor validation" `Quick
            test_thermal_governor_validation;
          Alcotest.test_case "thermal governor boundaries" `Quick
            test_thermal_governor_boundaries;
          Alcotest.test_case "thermal governor degraded envelope" `Quick
            test_thermal_governor_degraded_envelope;
          Alcotest.test_case "closed thermal loop" `Slow
            test_closed_thermal_loop;
          Alcotest.test_case "SISO baseline" `Slow test_siso_baseline;
          Alcotest.test_case "other benchmarks run" `Slow
            test_other_benchmarks_run;
        ] );
      ( "guarded",
        [
          Alcotest.test_case "filter never non-finite" `Quick
            test_guarded_filter_never_nonfinite;
          Alcotest.test_case "watchdog trip and recover" `Quick
            test_guarded_watchdog_trip_and_recover;
          Alcotest.test_case "watchdog re-arms after fallback and clearance"
            `Quick test_guarded_watchdog_rearms;
          Alcotest.test_case "spike vs level shift" `Quick
            test_guarded_spike_vs_level_shift;
          Alcotest.test_case "stuck sensor" `Quick test_guarded_stuck_sensor;
          Alcotest.test_case "actuator watchdog" `Quick
            test_guarded_actuator_watchdog;
          Alcotest.test_case "actuator verdict per period" `Quick
            test_guarded_actuator_per_period;
          Alcotest.test_case "manager sanitization" `Quick test_manager_sanitize;
          Alcotest.test_case "apply_cluster readback" `Quick
            test_manager_apply_cluster;
          Alcotest.test_case "supervisor non-finite guard" `Quick
            test_supervisor_nonfinite_guard;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "rides out power dropout" `Slow
            test_guarded_rides_out_power_dropout;
          Alcotest.test_case "rides out heartbeat stall" `Slow
            test_guarded_rides_out_heartbeat_stall;
          Alcotest.test_case "rides out stuck DVFS" `Slow
            test_guarded_rides_out_stuck_dvfs;
          Alcotest.test_case "unguarded fooled by dropout" `Slow
            test_unguarded_spectr_fooled_by_dropout;
          Alcotest.test_case "faulted trace columns" `Quick
            test_faulted_trace_columns;
          Alcotest.test_case "unfaulted trace unchanged" `Quick
            test_unfaulted_trace_unchanged;
          Alcotest.test_case "recovery time metric" `Quick
            test_metrics_recovery_time;
          Alcotest.test_case "zero-length phase omitted" `Slow
            test_metrics_empty_phase;
          Alcotest.test_case "mid-phase envelope step" `Quick
            test_metrics_envelope_step;
          Alcotest.test_case "find diagnostics" `Quick
            test_metrics_find_diagnostics;
          Alcotest.test_case "compliance boundaries" `Quick
            test_metrics_compliance_boundaries;
          Alcotest.test_case "fault schedule order" `Quick
            test_fault_schedule_order;
        ] );
      ( "fdir",
        [
          Alcotest.test_case "isolates dead power sensor" `Quick
            test_fdir_isolates_dead_power_sensor;
          Alcotest.test_case "isolates dead cluster" `Quick
            test_fdir_isolates_dead_cluster;
          Alcotest.test_case "isolates dead qos sensor" `Quick
            test_fdir_isolates_dead_qos_sensor;
          Alcotest.test_case "dead host subsumes qos verdict" `Quick
            test_fdir_dead_host_subsumes_qos;
          Alcotest.test_case "latched dvfs and transients" `Quick
            test_fdir_latched_dvfs_and_transients;
          Alcotest.test_case "validation" `Quick test_fdir_validation;
          Alcotest.test_case "fallback span metrics" `Quick
            test_guarded_fallback_span_metrics;
          Alcotest.test_case "persistence counter stages" `Quick
            test_persistence_stages;
          Alcotest.test_case "library matches hand-rolled oracle" `Quick
            test_fdir_guarded_match_oracle;
        ] );
      ( "reconfiguration",
        [
          Alcotest.test_case "adopt state mapping" `Quick
            test_supervisor_adopt_mapping;
          Alcotest.test_case "cluster death reconfigures" `Slow
            test_reconfig_cluster_dead;
          Alcotest.test_case "beats guarded fallback" `Slow
            test_reconfig_beats_guarded_fallback;
          Alcotest.test_case "dead power sensor reconfigures" `Slow
            test_reconfig_power_sensor_dead;
          Alcotest.test_case "latched dvfs pins the rail" `Slow
            test_reconfig_dvfs_latched;
          Alcotest.test_case "dead host falls back" `Slow
            test_reconfig_host_dead_falls_back;
          Alcotest.test_case "no fault stays nominal" `Slow
            test_reconfig_no_fault_is_nominal;
        ] );
    ]
