open Spectr_platform

type kind =
  | Power_cap
  | Qos_reconvergence
  | Supervisor_legal
  | Actuation_bounds
  | Non_finite

let num_kinds = 5

let kind_index = function
  | Power_cap -> 0
  | Qos_reconvergence -> 1
  | Supervisor_legal -> 2
  | Actuation_bounds -> 3
  | Non_finite -> 4

let kind_name = function
  | Power_cap -> "power-cap"
  | Qos_reconvergence -> "qos-reconvergence"
  | Supervisor_legal -> "supervisor-legal"
  | Actuation_bounds -> "actuation-bounds"
  | Non_finite -> "non-finite"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "power-cap" -> Power_cap
  | "qos-reconvergence" -> Qos_reconvergence
  | "supervisor-legal" -> Supervisor_legal
  | "actuation-bounds" -> Actuation_bounds
  | "non-finite" -> Non_finite
  | _ -> invalid_arg (Printf.sprintf "Invariants.kind_of_string: %S" s)

type violation = {
  v_kind : kind;
  v_tick : int;
  v_time : float;
  v_detail : string;
}

type limits = {
  guardband : float;
  settle_s : float;
  excess_budget_s : float;
  qos_floor : float;
  qos_deadline_s : float;
  sustain_ticks : int;
  max_violations : int;
}

let limits =
  {
    (* Safety guardband over the envelope: a soak run only fails when
       ground-truth power exceeds envelope × 1.05 past the excess
       budget.  Intentionally looser than the 2 % measurement allowance
       of [Spectr.Metrics.power_allowance] — that one scores regulation
       quality in evaluations; this one models the thermal design's
       safety margin under injected faults.  Tightening this to 2 %
       would turn ordinary cap flutter during fault recovery into
       violations. *)
    guardband = 0.05;
    settle_s = 1.0;
    excess_budget_s = 0.75;
    qos_floor = 0.5;
    qos_deadline_s = 3.0;
    sustain_ticks = 3;
    max_violations = 25;
  }

(* Power-cap bookkeeping, rewritten every tick: the current disturbance
   epoch's start and the cumulative over-cap time within it.  A record of
   floats only is stored flat, where a float field of the mixed [t]
   would hold a box until the next minor collection promoted it. *)
type power = { mutable epoch : float; mutable excess : float }

(* A passing [check] allocates nothing: the fault windows are the
   schedule's flags, each predicate is computed without building its
   message, and a finding's detail closure is built only when it fires.
   Floats stay in locals, flat arrays and flat records, never crossing a
   call as a box. *)
type t = {
  qos_ref : float;
  dt : float;
  tdp : float; (* largest envelope across phases *)
  disturbances : float array; (* sorted ascending, starts with 0 *)
  mutable violations_rev : violation list;
  mutable count : int;
  streaks : int array; (* consecutive violating ticks, per kind *)
  reported : bool array; (* an open episode already produced a finding *)
  power : power;
  mutable power_reported : bool;
  mutable budgets : float array; (* the supervisor's budgets, first k slots *)
}

let eps = 1e-9

let create ~config ?kill_time () =
  let schedule = Spectr.Scenario.fault_schedule config in
  let dt = config.Spectr.Scenario.controller_period in
  let tdp =
    List.fold_left
      (fun acc ph -> Float.max acc ph.Spectr.Scenario.envelope)
      0. config.Spectr.Scenario.phases
  in
  (* Every instant the plant is disturbed resets the compliance clocks:
     run start, each phase boundary (envelope or load change), each
     fault onset and clearance, and the kill/restart drill.  Phase
     starts come from the runner's own tick schedule. *)
  let disturbances =
    let phase_starts =
      List.map
        (fun (_, from, _) -> float_of_int from *. dt)
        (Spectr.Scenario.phase_bounds config)
    in
    let fault_edges =
      List.concat_map
        (fun i -> [ i.Faults.start_s; i.Faults.stop_s ])
        schedule
    in
    let all =
      (0. :: phase_starts)
      @ fault_edges
      @ (match kill_time with None -> [] | Some t -> [ t ])
    in
    let arr = Array.of_list all in
    Array.sort compare arr;
    arr
  in
  {
    qos_ref = config.Spectr.Scenario.qos_ref;
    dt;
    tdp;
    disturbances;
    violations_rev = [];
    count = 0;
    streaks = Array.make num_kinds 0;
    reported = Array.make num_kinds false;
    power = { epoch = 0.; excess = 0. };
    power_reported = false;
    budgets =
      Array.make (Platform_desc.num_clusters config.Spectr.Scenario.platform) 0.;
  }

(* Which fault windows hold at the SoC's clock: the schedule's flags,
   evaluated once when the clock last moved ({!Faults.advance}). *)
let actuator_window soc =
  match Soc.faults soc with
  | None -> false
  | Some f -> Faults.dvfs_stuck f || Faults.gating_refused f

let fault_window soc =
  match Soc.faults soc with None -> false | Some f -> Faults.active_count f > 0

let violations m = List.rev m.violations_rev

(* The one record path: every kind's finding lands here, and at most
   [max_violations] are kept per cell. *)
let record m ~tick ~time kind detail =
  if m.count < limits.max_violations then begin
    m.violations_rev <-
      { v_kind = kind; v_tick = tick; v_time = time; v_detail = detail () }
      :: m.violations_rev;
    m.count <- m.count + 1
  end

(* Episode discipline: a violation must hold for [required] consecutive
   ticks before it is reported, and a still-open episode is reported
   only once — a 2-second excursion is one finding, not forty.  True
   when the finding fires now. *)
let judge m kind bad =
  let k = kind_index kind in
  if bad then begin
    m.streaks.(k) <- m.streaks.(k) + 1;
    let required =
      match kind with
      | Power_cap | Qos_reconvergence -> limits.sustain_ticks
      | Supervisor_legal | Actuation_bounds | Non_finite -> 1
    in
    if m.streaks.(k) >= required && not m.reported.(k) then begin
      m.reported.(k) <- true;
      true
    end
    else false
  end
  else begin
    m.streaks.(k) <- 0;
    m.reported.(k) <- false;
    false
  end

(* Supervisor legality: restore-corruption tripwires.  Bounds are
   deliberately loose — they catch a scrambled checkpoint, not a tuning
   difference.  Host budget may roam up to the TDP; each secondary
   cluster's static share stays small.  Bounds scale with the platform's
   cluster count through the supervisor itself.  [None] allocates
   nothing. *)
let supervisor_problem m sup =
  match Spectr.Supervisor.state sup with
  | exception Invalid_argument msg -> Some ("illegal automaton state: " ^ msg)
  | (_ : string) ->
      let mode = Spectr.Supervisor.gains_mode sup in
      if not (String.equal mode "qos" || String.equal mode "power") then
        Some (Printf.sprintf "unknown gains mode %S" mode)
      else begin
        let k = Spectr.Supervisor.num_clusters sup in
        if Array.length m.budgets < k then m.budgets <- Array.make k 0.;
        let refs = m.budgets in
        Spectr.Supervisor.power_refs_into sup refs;
        let host = Spectr.Supervisor.host_cluster sup in
        let problem = ref None and i = ref 0 in
        while Option.is_none !problem && !i < k do
          let r = refs.(!i) in
          let hi = if !i = host then m.tdp +. 0.5 else 1.5 in
          if not (Float.is_finite r) || r < 0.05 || r > hi then begin
            let label = if !i = host then "host" else "secondary" in
            problem :=
              Some
                (if not (Float.is_finite r) then
                   Printf.sprintf "non-finite budget (%s cluster %d: %g)" label
                     !i r
                 else
                   Printf.sprintf
                     "%s cluster %d budget %.3f W outside [0.05, %.2f]" label
                     !i r hi)
          end;
          incr i
        done;
        !problem
      end

(* Actuation bounds: whatever was applied must be a real OPP and a legal
   core count — a manager must never be able to command the platform
   outside its tables.  [None] allocates nothing. *)
let actuation_problem soc =
  let k = Soc.num_clusters soc in
  let problem = ref None and i = ref 0 in
  while Option.is_none !problem && !i < k do
    let f = Soc.frequency soc !i in
    let c = Soc.active_cores soc !i in
    let max_c = Soc.cluster_cores soc !i in
    let table = (Soc.opp_table soc !i).Opp.freqs_mhz in
    let j = ref 0 in
    while !j < Array.length table && table.(!j) <> f do
      incr j
    done;
    if !j = Array.length table then
      problem :=
        Some
          (Printf.sprintf "cluster %d at %d MHz, not an OPP of its table" !i f)
    else if c < 1 || c > max_c then
      problem :=
        Some
          (Printf.sprintf "cluster %d at %d active cores outside [1, %d]" !i c
             max_c);
    incr i
  done;
  !problem

let check m ~runner ~sup ~obs =
  let t = obs.Soc.time in
  let tick = Spectr.Scenario.ticks_done runner - 1 in
  let soc = Spectr.Scenario.runner_soc runner in
  (* The phase of the tick just run: the runner advances its phase
     cursor only when the next tick starts. *)
  let phase = Spectr.Scenario.phase runner in
  (* The last disturbance instant at or before [t]. *)
  let epoch = ref 0. in
  for i = 0 to Array.length m.disturbances - 1 do
    let d = m.disturbances.(i) in
    if d <= t +. eps && d > !epoch then epoch := d
  done;
  let epoch = !epoch in
  let since_disturbance = t -. epoch in
  (* Power cap: judged on ground truth (sensor faults corrupt the
     observation).  The controller may oscillate around the cap, so the
     invariant is cumulative, as in the robustness bench: within one
     disturbance epoch — the interval between two disturbance instants —
     the total time spent above the guardbanded envelope (after a short
     settle grace) must stay below the excess budget.  Actuator faults
     physically prevent compliance, so those windows do not count;
     sensor faults DO count — surviving a lying sensor is exactly what
     the guards are for. *)
  let pw = m.power in
  if epoch <> pw.epoch then begin
    pw.epoch <- epoch;
    pw.excess <- 0.;
    m.power_reported <- false
  end;
  let truth = Spectr.Scenario.ground_truth runner in
  let true_power = truth.(0) in
  let envelope = phase.Spectr.Scenario.envelope in
  let cap = envelope *. (1. +. limits.guardband) in
  if
    (not (actuator_window soc))
    && since_disturbance > limits.settle_s
    && true_power > cap
  then begin
    pw.excess <- pw.excess +. m.dt;
    if pw.excess > limits.excess_budget_s && not m.power_reported then begin
      m.power_reported <- true;
      record m ~tick ~time:t Power_cap (fun () ->
          Printf.sprintf
            "%.2f s cumulative above %.3f W (envelope %.2f W + %.0f%% \
             guardband) since the disturbance at t=%.2f s; now %.3f W"
            pw.excess cap envelope
            (100. *. limits.guardband)
            epoch true_power)
    end
  end;
  (* QoS re-convergence: only judged in quiet regions — no fault window
     active, benign load, full envelope — and only after the deadline
     from the last disturbance has passed. *)
  let true_qos = truth.(1) in
  let qos_floor = limits.qos_floor *. m.qos_ref in
  let qos_bad =
    (not (fault_window soc))
    && phase.Spectr.Scenario.background_tasks = 0
    && envelope >= m.tdp -. eps
    && since_disturbance > limits.qos_deadline_s
    && true_qos < qos_floor
  in
  if judge m Qos_reconvergence qos_bad then
    record m ~tick ~time:t Qos_reconvergence (fun () ->
        Printf.sprintf
          "true QoS rate %.2f < %.2f (%.0f%% of reference %.2f) in a quiet \
           region, %.2f s after the last disturbance"
          true_qos qos_floor (100. *. limits.qos_floor) m.qos_ref
          since_disturbance);
  (match sup with
  | None -> ()
  | Some sup -> (
      match supervisor_problem m sup with
      | None -> ignore (judge m Supervisor_legal false : bool)
      | Some problem ->
          if judge m Supervisor_legal true then
            record m ~tick ~time:t Supervisor_legal (fun () -> problem)));
  (match actuation_problem soc with
  | None -> ignore (judge m Actuation_bounds false : bool)
  | Some problem ->
      if judge m Actuation_bounds true then
        record m ~tick ~time:t Actuation_bounds (fun () ->
            "applied state outside platform tables: " ^ problem));
  (* Non-finite tripwire over everything a manager or evaluator reads. *)
  let powers = Soc.sensor_powers soc in
  let powers_finite = ref true in
  for i = 0 to Array.length powers - 1 do
    if not (Float.is_finite powers.(i)) then powers_finite := false
  done;
  let finite_bad =
    not
      (Float.is_finite obs.Soc.qos_rate
      && !powers_finite
      && Float.is_finite obs.Soc.chip_power
      && Float.is_finite true_power && Float.is_finite true_qos)
  in
  if judge m Non_finite finite_bad then
    record m ~tick ~time:t Non_finite (fun () ->
        let per_cluster =
          String.concat ", "
            (Array.to_list
               (Array.mapi (fun i p -> Printf.sprintf "cluster %d %g" i p)
                  powers))
        in
        Printf.sprintf
          "non-finite value reached the pipeline: qos %g, %s, chip %g, true \
           power %g, true qos %g"
          obs.Soc.qos_rate per_cluster obs.Soc.chip_power true_power true_qos)
