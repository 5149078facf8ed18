open Spectr_automata
module Obs = Spectr_obs
module Platform_desc = Spectr_platform.Platform_desc

(* Observability handles (no-ops while instrumentation is disabled). *)
let c_steps = Obs.Counters.counter "supervisor.steps"
let c_fired = Obs.Counters.counter "supervisor.events_fired"
let c_observed = Obs.Counters.counter "supervisor.events_observed"
let c_dropped = Obs.Counters.counter "supervisor.samples_dropped"
let h_step = Obs.Histogram.histogram "supervisor.step_ns"

type commands = {
  switch_gains : string -> unit;
  set_power_ref : int -> float -> unit;
      (* per-cluster power-reference update, cluster in description
         order *)
}

(* The band and budget constants.  Field names keep the paper's
   Big/Little vocabulary: "big" is the host cluster (the one running the
   QoS application), "little" is every secondary cluster — each
   secondary gets its own budget between [little_budget_min] and
   [little_budget_max], moved in [little_budget_step] increments. *)
type thresholds = {
  qos_tolerance : float;
  capping_target : float;
  big_budget_step : float;
  big_budget_min : float;
  little_budget_step : float;
  little_budget_min : float;
  little_budget_max : float;
  critical_cut : float;
  max_actions_per_step : int;
  min_capped_dwell : int; (* uncapping hysteresis, supervisor periods *)
}

let thresholds =
  {
    qos_tolerance = 0.02;
    capping_target = 0.97;
    big_budget_step = 0.25;
    big_budget_min = 0.8;
    little_budget_step = 0.1;
    little_budget_min = 0.15;
    little_budget_max = 1.0;
    critical_cut = 0.9;
    max_actions_per_step = 4;
    min_capped_dwell = 10;
  }

let synthesize ?(platform = Platform_desc.exynos5422) () =
  let plant = Plant_model.composed_for platform in
  (* Memoized: every scenario constructs its managers from scratch (a
     requirement of the parallel bench harness), but synthesis — and
     with it both Verify checks — only ever runs once per (plant, spec)
     digest pair, i.e. once per platform description. *)
  match
    Spectr_exec.Synth_cache.supcon ~plant ~spec:(Spec.of_platform platform)
  with
  | Error Synthesis.Empty_supervisor ->
      failwith "Supervisor.synthesize: empty supervisor"
  | Ok result -> result

(* The most recent measurements, consulted by the action policy.  A
   record of floats only is stored flat: [do_step] overwrites them every
   supervisor period with unboxed stores, where a mutable float field of
   the mixed [t] would keep the caller's box alive until the next minor
   collection promoted it. *)
type last = {
  mutable qos : float;
  mutable qos_ref : float;
  mutable power : float;
  mutable envelope : float;
}

(* The engine's mutable state, a record of its own so a checkpoint
   holds a twin of it and one [copy] moves it either way. *)
type state = {
  mutable current : int; (* supervisor-automaton state index *)
  mutable mode : string; (* "qos" | "power" *)
  mutable mode_age : int; (* supervisor periods since the last switch *)
  refs : float array; (* per-cluster power references *)
  last : last;
}

type t = {
  uncapping_threshold : float; (* lowest band edge *)
  commands : commands;
  platform : Platform_desc.t;
  auto : Automaton.t;
  stats : Synthesis.stats;
  k : int; (* cluster count *)
  host : int; (* host-cluster index *)
  (* Per-cluster budget-command ids, indexed by cluster. *)
  id_increase : int array;
  id_decrease : int array;
  ref_targets : string array; (* decision-log labels, "<name>_power_ref" *)
  s : state;
}

let create ?(uncapping_threshold = 0.90)
    ?(platform = Platform_desc.exynos5422) ~commands ~envelope () =
  if envelope <= 0. then invalid_arg "Supervisor.create: envelope <= 0";
  let auto, stats = synthesize ~platform () in
  let fam = Events.for_platform platform in
  let k = Platform_desc.num_clusters platform in
  let host = Platform_desc.host platform in
  let refs = Array.make k 0.3 in
  refs.(host) <- Float.max thresholds.big_budget_min (envelope -. 0.6);
  commands.set_power_ref host refs.(host);
  for i = 0 to k - 1 do
    if i <> host then commands.set_power_ref i refs.(i)
  done;
  {
    uncapping_threshold;
    commands;
    platform;
    auto;
    stats;
    k;
    host;
    id_increase = Array.init k (fun i -> Event.id (Events.increase fam i));
    id_decrease = Array.init k (fun i -> Event.id (Events.decrease fam i));
    ref_targets =
      Array.init k (fun i ->
          Platform_desc.cluster_name platform i ^ "_power_ref");
    s =
      {
        current = Automaton.initial_index auto;
        mode = "qos";
        mode_age = 0;
        refs;
        last = { qos = 0.; qos_ref = 1.; power = 0.; envelope };
      };
  }

(* The only place the runtime engine translates back to a name: the hot
   path below tracks the state purely as an index. *)
let state t = Automaton.state_of_index t.auto t.s.current
let gains_mode t = t.s.mode
let platform t = t.platform
let num_clusters t = t.k
let host_cluster t = t.host

let power_ref t i =
  if i < 0 || i >= t.k then invalid_arg "Supervisor.power_ref: cluster index";
  t.s.refs.(i)

let power_refs_into t dst =
  if Array.length dst < t.k then
    invalid_arg "Supervisor.power_refs_into: fewer slots than clusters";
  Array.blit t.s.refs 0 dst 0 t.k

let synthesis_stats t = t.stats

type saved = state

let saved t =
  let s = t.s in
  { s with refs = Array.copy s.refs; last = { s.last with qos = s.last.qos } }

let copy_state ~src ~dst =
  dst.current <- src.current;
  dst.mode <- src.mode;
  dst.mode_age <- src.mode_age;
  Array.blit src.refs 0 dst.refs 0 (Array.length dst.refs);
  dst.last.qos <- src.last.qos;
  dst.last.qos_ref <- src.last.qos_ref;
  dst.last.power <- src.last.power;
  dst.last.envelope <- src.last.envelope

let copy t s ~restore =
  if Array.length s.refs <> t.k then
    invalid_arg
      (Printf.sprintf "Supervisor.copy: %d budget refs, platform has %d"
         (Array.length s.refs) t.k);
  if restore then begin
    if s.current < 0 || s.current >= Automaton.num_states t.auto then
      invalid_arg "Supervisor.copy: state index out of range";
    if s.mode <> "qos" && s.mode <> "power" then
      invalid_arg (Printf.sprintf "Supervisor.copy: mode %S" s.mode);
    copy_state ~src:s ~dst:t.s
  end
  else copy_state ~src:t.s ~dst:s

(* --- actions --------------------------------------------------------- *)

(* The runtime engine works purely in event-id space: the global ids
   below are interned once at module load (per-cluster command ids live
   in [t], filled at creation), and every per-step automaton query is an
   int binary search ({!Automaton.step_index_raw}) — no event lists, no
   options, no string comparisons on the tick path. *)
let id_critical = Event.id Events.critical
let id_above_target = Event.id Events.above_target
let id_below_target = Event.id Events.below_target
let id_safe_power = Event.id Events.safe_power
let id_qos_met = Event.id Events.qos_met
let id_qos_not_met = Event.id Events.qos_not_met
let id_power_safe_qos_met = Event.id Events.power_safe_qos_met
let id_power_safe_qos_not_met = Event.id Events.power_safe_qos_not_met
let id_switch_power = Event.id Events.switch_power
let id_switch_qos = Event.id Events.switch_qos
let id_decrease_critical_power = Event.id Events.decrease_critical_power
let id_control_power = Event.id Events.control_power
let id_hold_budget = Event.id Events.hold_budget

(* Is [eid] enabled in the current supervisor state?  All candidates the
   policy probes are controllable by construction, so no
   controllability filter is needed. *)
let[@inline] has t eid = Automaton.step_index_raw t.auto t.s.current eid >= 0

(* The cluster budgets must jointly respect the envelope: the host
   budget is clamped to what the secondary allocations leave.  The
   secondary clusters rarely draw their full budgets, so only 90 % of
   them is reserved — transient overshoots are caught by the
   critical-event feedback loop rather than by static conservatism. *)
let[@inline] host_budget_cap t =
  if t.k = 1 then
    (* Host-only plant (a degraded description with every secondary
       removed): there is no fine-grained secondary to absorb the last
       watts, and the host's OPP grid is coarse — an OPP step is ~0.4 W
       near the top of the big cluster's table — so capping at the full
       envelope limit-cycles across it.  Cap at the supervisor's own
       capping target instead, less half an OPP step of slack. *)
    (t.s.last.envelope *. thresholds.capping_target) -. 0.2
  else begin
    let reserved = ref 0. in
    for i = 0 to t.k - 1 do
      if i <> t.host then reserved := !reserved +. t.s.refs.(i)
    done;
    t.s.last.envelope -. (0.9 *. !reserved)
  end

let[@inline] record_rebudget t i v =
  if Obs.enabled () then
    Obs.Decision_log.record
      (Obs.Decision_log.Rebudget { target = t.ref_targets.(i); value = v })

let set_host t v =
  let v =
    Float.max thresholds.big_budget_min (Float.min v (host_budget_cap t))
  in
  if v <> t.s.refs.(t.host) then begin
    t.s.refs.(t.host) <- v;
    t.commands.set_power_ref t.host v;
    record_rebudget t t.host v
  end

let set_secondary t i v =
  let v =
    Float.max thresholds.little_budget_min
      (Float.min v thresholds.little_budget_max)
  in
  if v <> t.s.refs.(i) then begin
    t.s.refs.(i) <- v;
    t.commands.set_power_ref i v;
    record_rebudget t i v
  end

(* Dispatch one per-cluster budget command; returns false when [eid] is
   not one of them. *)
let execute_cluster t eid =
  let matched = ref false in
  let i = ref 0 in
  while (not !matched) && !i < t.k do
    let ci = !i in
    (if eid = t.id_increase.(ci) then begin
       matched := true;
       if ci = t.host then
         set_host t (t.s.refs.(ci) +. thresholds.big_budget_step)
       else begin
         set_secondary t ci (t.s.refs.(ci) +. thresholds.little_budget_step);
         (* a bigger secondary allocation shrinks the host budget cap *)
         set_host t t.s.refs.(t.host)
       end
     end
     else if eid = t.id_decrease.(ci) then begin
       matched := true;
       if ci = t.host then
         set_host t (t.s.refs.(ci) -. thresholds.big_budget_step)
       else set_secondary t ci (t.s.refs.(ci) -. thresholds.little_budget_step)
     end);
    incr i
  done;
  !matched

let execute t eid =
  Obs.Counters.incr c_fired;
  if Obs.enabled () then
    Obs.Decision_log.record
      (Obs.Decision_log.Event_fired
         { event = Event.name (Automaton.event_of_id t.auto eid);
           controllable = true });
  (if eid = id_switch_power then begin
     t.s.mode <- "power";
     t.s.mode_age <- 0;
     t.commands.switch_gains "power";
     if Obs.enabled () then
       Obs.Decision_log.record (Obs.Decision_log.Gain_switch { mode = "power" })
   end
   else if eid = id_switch_qos then begin
     t.s.mode <- "qos";
     t.s.mode_age <- 0;
     t.commands.switch_gains "qos";
     if Obs.enabled () then
       Obs.Decision_log.record (Obs.Decision_log.Gain_switch { mode = "qos" })
   end
   else if eid = id_decrease_critical_power then begin
     set_host t (t.s.refs.(t.host) *. thresholds.critical_cut);
     for i = 0 to t.k - 1 do
       if i <> t.host then set_secondary t i thresholds.little_budget_min
     done
   end
   else if eid = id_control_power then begin
     (* Capping-band bookkeeping: re-clamp budgets to the envelope. *)
     set_host t t.s.refs.(t.host);
     for i = 0 to t.k - 1 do
       if i <> t.host then set_secondary t i t.s.refs.(i)
     done
   end
   else if execute_cluster t eid then ()
   else () (* holdBudget and anything unknown: state step only *));
  let next = Automaton.step_index_raw t.auto t.s.current eid in
  if next >= 0 then t.s.current <- next
(* execute is only called on enabled events, so next >= 0 in practice *)

(* Secondary-cluster scans of the action policy: first enabled
   budget-raise (resp. -cut) command among the secondary clusters in
   description order.  Returns the event id or [-1]. *)
let first_secondary_increase t =
  let pick = ref (-1) in
  let i = ref 0 in
  while !pick < 0 && !i < t.k do
    (if !i <> t.host
        && t.s.refs.(!i) < thresholds.little_budget_max -. 0.01
        && has t t.id_increase.(!i)
     then pick := t.id_increase.(!i));
    incr i
  done;
  !pick

let first_secondary_decrease t =
  let pick = ref (-1) in
  let i = ref 0 in
  while !pick < 0 && !i < t.k do
    (if !i <> t.host
        && t.s.refs.(!i) > thresholds.little_budget_min +. 0.01
        && has t t.id_decrease.(!i)
     then pick := t.id_decrease.(!i));
    incr i
  done;
  !pick

(* The budget policy: among the controllable events the supervisor leaves
   enabled in the current state, pick the most useful one.  Returns the
   event id, or [-1] when no enabled controllable remains.  Each [has]
   probe is one binary search of the current CSR row. *)
let choose_action t =
  let qos_surplus =
    t.s.last.qos -. (t.s.last.qos_ref *. (1. +. thresholds.qos_tolerance))
  in
  let headroom = host_budget_cap t -. t.s.refs.(t.host) in
  if has t id_switch_power then id_switch_power
  else if has t id_decrease_critical_power then id_decrease_critical_power
  else if has t id_switch_qos && t.s.mode_age >= thresholds.min_capped_dwell then
    id_switch_qos
  else if has t t.id_increase.(t.host) && headroom > 0.01 then
    t.id_increase.(t.host)
  else begin
    let raise_eid = if headroom <= 0.01 then first_secondary_increase t else -1 in
    if raise_eid >= 0 then raise_eid
    else if has t t.id_decrease.(t.host) && qos_surplus > 0. then
      t.id_decrease.(t.host)
    else begin
      let cut_eid = if qos_surplus > 0. then first_secondary_decrease t else -1 in
      if cut_eid >= 0 then cut_eid
      else if has t id_control_power then id_control_power
      else if has t id_hold_budget then id_hold_budget
      else -1
    end
  end

(* A counted while-loop (a local [let rec] would allocate a closure
   over [t] on every call). *)
let run_controllables t =
  let budget = ref thresholds.max_actions_per_step in
  let stop = ref false in
  while (not !stop) && !budget > 0 do
    let eid = choose_action t in
    if eid >= 0 then begin
      execute t eid;
      decr budget
    end
    else stop := true
  done

(* Feed one uncontrollable event if the supervisor defines it here. *)
let feed t eid =
  let next = Automaton.step_index_raw t.auto t.s.current eid in
  if next >= 0 then begin
    Obs.Counters.incr c_observed;
    if Obs.enabled () then
      Obs.Decision_log.record
        (Obs.Decision_log.Event_fired
           { event = Event.name (Automaton.event_of_id t.auto eid);
             controllable = false });
    t.s.current <- next;
    run_controllables t
  end

(* Sensor-fault substitution arm of the guard in [do_step]: count the
   drop, pass the fallback through. *)
let[@inline] subst v =
  Obs.Counters.incr c_dropped;
  v

let do_step t ~qos ~qos_ref ~power ~envelope =
  (* Sensor-fault guard: a non-finite measurement must not poison the
     band comparisons (NaN makes every band test false, silently holding
     the current state forever).  Treat it as a dropped sample and fall
     back to the last trustworthy value — the guarded layer upstream
     normally filters these out, but the supervisor must stay safe even
     when driven bare. *)
  let last = t.s.last in
  let qos = if Float.is_finite qos then qos else subst last.qos in
  let qos_ref =
    if Float.is_finite qos_ref then qos_ref else subst last.qos_ref
  in
  let power = if Float.is_finite power then power else subst last.power in
  let envelope =
    if Float.is_finite envelope && envelope > 0. then envelope
    else subst last.envelope
  in
  t.s.mode_age <- t.s.mode_age + 1;
  last.qos <- qos;
  last.qos_ref <- qos_ref;
  last.power <- power;
  (if envelope <> last.envelope then begin
     last.envelope <- envelope;
     (* Re-clamp budgets immediately on an envelope change (thermal
        emergency or recovery). *)
     set_host t t.s.refs.(t.host)
   end);
  (* Power-band event ([-1]: inside the capping band, nothing fires). *)
  let power_eid =
    if power > envelope then id_critical
    else if power > thresholds.capping_target *. envelope then id_above_target
    else if power < t.uncapping_threshold *. envelope then
      if t.s.mode = "power" then id_safe_power else id_below_target
    else -1
  in
  if power_eid >= 0 then feed t power_eid;
  (* QoS event. *)
  let qos_ok = qos >= qos_ref *. (1. -. thresholds.qos_tolerance) in
  let power_ok = power <= envelope in
  let qos_eid =
    if power_ok then
      if qos_ok then id_power_safe_qos_met else id_power_safe_qos_not_met
    else if qos_ok then id_qos_met
    else id_qos_not_met
  in
  feed t qos_eid;
  (* Give the budget policy a chance even when no event fired. *)
  run_controllables t

(* --- hot-swap state mapping ------------------------------------------- *)

(* The reconfiguration engine replaces a supervisor synthesized for the
   healthy platform with one synthesized for the degraded description.
   The two automata have different state spaces (different event
   alphabets when a cluster disappeared), so the old state index is
   meaningless in the new automaton.  The mapping rule:

   1. the new supervisor starts at its {e initial} state (the only state
      guaranteed to exist and to be safe in the new automaton);
   2. the outgoing budget references carry over {e by cluster name} —
      clusters removed by the degradation drop their allocation, the
      survivors' carry-overs are re-clamped against the (possibly
      smaller) envelope through the normal [set_host]/[set_secondary]
      clamps, so the carried configuration is expressible in the new
      automaton's budget lattice;
   3. the gains mode carries over by replaying the uncontrollable
      history that would have produced it: a supervisor that was capping
      ("power" mode) re-enters capping by feeding [aboveTarget] from the
      initial state and letting the policy fire [switchPower], keeping
      the capping dwell-age so un-capping hysteresis does not restart;
   4. one ordinary [do_step] on the last carried measurements settles
      the band events, so the first live tick after the swap sees a
      supervisor already consistent with the measured world.

   Everything else (Kalman states, integrators) lives in the MIMO layer
   and is carried there by reusing the surviving controllers. *)
let adopt t ~prev =
  let ps = prev.s in
  let qos = ps.last.qos in
  let qos_ref = ps.last.qos_ref in
  let power = ps.last.power in
  let envelope = ps.last.envelope in
  t.s.last.qos <- qos;
  t.s.last.qos_ref <- qos_ref;
  t.s.last.power <- power;
  if Float.is_finite envelope && envelope > 0. then t.s.last.envelope <- envelope;
  Array.iteri
    (fun j v ->
      match
        Platform_desc.find_cluster t.platform
          (Platform_desc.cluster_name prev.platform j)
      with
      | None -> () (* removed by the degradation: allocation dropped *)
      | Some i -> if i = t.host then set_host t v else set_secondary t i v)
    ps.refs;
  if ps.mode = "power" && t.s.mode <> "power" then begin
    feed t id_above_target;
    if t.s.mode <> "power" && has t id_switch_power then execute t id_switch_power;
    if t.s.mode = "power" then t.s.mode_age <- ps.mode_age
  end;
  do_step t ~qos ~qos_ref ~power ~envelope

(* One supervisory invocation: counted and latency-timed when
   observability is enabled; otherwise exactly [do_step]. *)
let step t ~qos ~qos_ref ~power ~envelope =
  if not (Obs.enabled ()) then do_step t ~qos ~qos_ref ~power ~envelope
  else begin
    Obs.Counters.incr c_steps;
    Obs.time h_step (fun () -> do_step t ~qos ~qos_ref ~power ~envelope)
  end
