open Spectr_automata
module Platform_desc = Spectr_platform.Platform_desc

let critical = Event.uncontrollable "critical"
let above_target = Event.uncontrollable "aboveTarget"
let below_target = Event.uncontrollable "belowTarget"
let safe_power = Event.uncontrollable "safePower"
let qos_met = Event.uncontrollable "QoSmet"
let qos_not_met = Event.uncontrollable "QoSnotMet"
let power_safe_qos_met = Event.uncontrollable "powerSafeQoSMet"
let power_safe_qos_not_met = Event.uncontrollable "powerSafeQoSNotMet"
let switch_power = Event.controllable "switchPower"
let switch_qos = Event.controllable "switchQoS"
(* The exynos5422 budget commands, interned here in the paper's order so
   event ids — which fix CSR row order, supervisor state numbering and
   with them every structural digest — do not depend on when
   [for_platform] first runs. *)
let () =
  List.iter
    (fun n -> ignore (Event.controllable n : Event.t))
    [
      "increaseBigPower";
      "decreaseBigPower";
      "increaseLittlePower";
      "decreaseLittlePower";
    ]

let decrease_critical_power = Event.controllable "decreaseCriticalPower"
let control_power = Event.controllable "controlPower"
let hold_budget = Event.controllable "holdBudget"

(* --- per-cluster command families ------------------------------------ *)

type family = { increase : Event.t array; decrease : Event.t array }

(* Families are built lazily from manager constructors, which the bench
   pool runs on several domains at once; the single-flight memo hands
   every caller the one family per description. *)
let families : (string, family) Spectr_exec.Single_flight.t =
  Spectr_exec.Single_flight.create ()

let command_name verb desc i =
  verb ^ String.capitalize_ascii (Platform_desc.cluster_name desc i) ^ "Power"

let for_platform desc =
  (* A cluster named "critical" would mint "decreaseCriticalPower" —
     the reserved emergency command — and the interner would silently
     unify the two.  Refuse rather than conflate. *)
  (let k = Platform_desc.num_clusters desc in
   for i = 0 to k - 1 do
     if Platform_desc.cluster_name desc i = "critical" then
       invalid_arg
         "Events.for_platform: cluster name \"critical\" collides with the \
          reserved decreaseCriticalPower command"
   done);
  Spectr_exec.Single_flight.find_or_compute families
    ~key:(Platform_desc.digest desc)
    ~compute:(fun () ->
      let k = Platform_desc.num_clusters desc in
      let mint verb i = Event.controllable (command_name verb desc i) in
      {
        increase = Array.init k (mint "increase");
        decrease = Array.init k (mint "decrease");
      })

let increase f i = f.increase.(i)
let decrease f i = f.decrease.(i)
