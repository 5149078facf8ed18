open Spectr_automata
module Platform_desc = Spectr_platform.Platform_desc

(* Both sub-plants are generated from the platform description: the QoS
   loop's Raise/Lower states react with one budget command per cluster
   (in description order), the capping loop is cluster-count invariant.
   On exynos5422 the generated lists are exactly the paper's figures. *)

let generate_qos desc =
  let fam = Events.for_platform desc in
  let k = Platform_desc.num_clusters desc in
  let each verb = List.init k verb in
  let transitions =
    List.concat
      [
        [
          (* QoS observations *)
          ("Eval", Events.qos_not_met, "Raise");
          ("Eval", Events.power_safe_qos_not_met, "Raise");
          ("Eval", Events.qos_met, "Lower");
          ("Eval", Events.power_safe_qos_met, "Lower");
        ];
        (* budget reactions; holdBudget is the do-nothing fallback the
           supervisor uses when budget moves are disabled (capped mode)
           or inappropriate.  It must stay private to this sub-plant. *)
        each (fun i -> ("Raise", Events.increase fam i, "Eval"));
        [ ("Raise", Events.hold_budget, "Eval") ];
        each (fun i -> ("Lower", Events.decrease fam i, "Eval"));
        [ ("Lower", Events.hold_budget, "Eval") ];
      ]
  in
  Automaton.create ~marked:[ "Eval" ] ~name:"QoSManagement" ~initial:"Eval"
    ~transitions ()

let generate_capping (_ : Platform_desc.t) =
  Automaton.create ~marked:[ "Safe" ] ~name:"PowerCapping" ~initial:"Safe"
    ~transitions:
      [
        ("Safe", Events.below_target, "Safe");
        ("Safe", Events.safe_power, "Safe");
        ("Safe", Events.above_target, "Watch");
        ("Safe", Events.critical, "Emergency");
        (* Inside the capping band: tighten budgets, stay vigilant. *)
        ("Watch", Events.control_power, "Safe");
        ("Watch", Events.critical, "Emergency");
        (* Budget violated: the gain switch takes effect within one
           control period. *)
        ("Emergency", Events.switch_power, "Capped");
        (* While capped: a renewed violation demands a deeper cut, after
           which the system is assumed sub-critical (Cooling). *)
        ("Capped", Events.above_target, "Capped");
        ("Capped", Events.critical, "StillHot");
        ("Capped", Events.safe_power, "Restore");
        ("StillHot", Events.decrease_critical_power, "Cooling");
        ("Cooling", Events.above_target, "Cooling");
        ("Cooling", Events.safe_power, "Restore");
        ("Restore", Events.switch_qos, "Safe");
      ]
    ()

(* Memoized per digest, like [Spec.of_platform]: the pair and their
   product feed the synthesis cache, and handing back identical automata
   keeps their structural digests computed once per description.  A miss
   builds under the lock, so every caller gets the one physical value. *)
let mutex = Mutex.create ()
let pairs : (string, Automaton.t * Automaton.t) Hashtbl.t = Hashtbl.create 8
let products : (string, Automaton.t) Hashtbl.t = Hashtbl.create 8

let memo tbl desc build =
  let digest = Platform_desc.digest desc in
  Mutex.protect mutex (fun () ->
      match Hashtbl.find_opt tbl digest with
      | Some v -> v
      | None ->
          let v = build () in
          Hashtbl.replace tbl digest v;
          v)

let of_platform desc =
  memo pairs desc (fun () -> (generate_qos desc, generate_capping desc))

let qos_management, power_capping = of_platform Platform_desc.exynos5422

let composed_for desc =
  let qos, capping = of_platform desc in
  memo products desc (fun () -> Compose.pair qos capping)

let composed () = composed_for Platform_desc.exynos5422
