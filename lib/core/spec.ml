open Spectr_automata
module Platform_desc = Spectr_platform.Platform_desc

(* The specification is generated from the platform description: one
   budget-increase/decrease pair per cluster, everything else invariant.
   On exynos5422 the generated transition list is exactly the paper's
   hand-drawn figure (clusters in description order: big, little). *)
let generate desc =
  let fam = Events.for_platform desc in
  let k = Platform_desc.num_clusters desc in
  let each verb = List.init k verb in
  let transitions =
    List.concat
      [
        (* Normal operation: budget moves allowed. *)
        each (fun i -> ("Uncapped", Events.increase fam i, "Uncapped"));
        each (fun i -> ("Uncapped", Events.decrease fam i, "Uncapped"));
        [
          ("Uncapped", Events.control_power, "Uncapped");
          ("Uncapped", Events.safe_power, "Uncapped");
          ("Uncapped", Events.critical, "C1");
          (* Consecutive-violation counter: mitigation must complete
             before the third critical interval. *)
          ("C1", Events.switch_power, "Capped");
          ("C1", Events.critical, "C2");
          ("C2", Events.switch_power, "Capped");
          ("C2", Events.critical, "Threshold");
        ];
        (* Capped mode: budget increases are explicitly forbidden (they
           lead to the forbidden state, so synthesis must disable them);
           cuts and bookkeeping only. *)
        each (fun i -> ("Capped", Events.increase fam i, "Threshold"));
        each (fun i -> ("Capped", Events.decrease fam i, "Capped"));
        [
          ("Capped", Events.decrease_critical_power, "Capped");
          ("Capped", Events.control_power, "Capped");
          ("Capped", Events.critical, "CapHot");
          ("Capped", Events.safe_power, "CapSafe");
          ("CapHot", Events.decrease_critical_power, "Capped");
          ("CapHot", Events.control_power, "CapHot");
          ("CapHot", Events.critical, "Threshold");
          ("CapSafe", Events.switch_qos, "Uncapped");
        ];
      ]
  in
  Automaton.create ~marked:[ "Uncapped" ] ~forbidden:[ "Threshold" ]
    ~name:"ThreeBandCapping" ~initial:"Uncapped" ~transitions ()

(* Memoized per platform digest: supervisor construction happens per
   scenario cell and per bench task, and the synthesis cache downstream
   keys on the automaton, so handing back the identical value also keeps
   its digest computation amortized.  Single-flight, so concurrent
   callers share the one physical value. *)
let cache : (string, Automaton.t) Spectr_exec.Single_flight.t =
  Spectr_exec.Single_flight.create ()

let of_platform desc =
  Spectr_exec.Single_flight.find_or_compute cache
    ~key:(Platform_desc.digest desc) ~compute:(fun () -> generate desc)

let three_band = of_platform Platform_desc.exynos5422
