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

type t = {
  qos_ref : float;
  dt : float;
  tdp : float; (* largest envelope across phases *)
  disturbances : float array; (* sorted ascending, starts with 0 *)
  actuator_windows : (float * float) list;
  fault_windows : (float * float) list;
  mutable violations_rev : violation list;
  mutable count : int;
  streaks : int array; (* consecutive violating ticks, per kind *)
  reported : bool array; (* an open episode already produced a finding *)
  power : power;
  mutable power_reported : bool;
}

let eps = 1e-9

let is_actuator = function
  | Faults.Dvfs_stuck | Faults.Gating_refused | Faults.Dvfs_stuck_permanent
    ->
      true
  | _ -> false

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
    actuator_windows =
      List.filter_map
        (fun i ->
          if is_actuator i.Faults.fault then
            Some (i.Faults.start_s, i.Faults.stop_s)
          else None)
        schedule;
    fault_windows =
      List.map (fun i -> (i.Faults.start_s, i.Faults.stop_s)) schedule;
    violations_rev = [];
    count = 0;
    streaks = Array.make num_kinds 0;
    reported = Array.make num_kinds false;
    power = { epoch = 0.; excess = 0. };
    power_reported = false;
  }

let last_disturbance m t =
  let best = ref 0. in
  Array.iter
    (fun d -> if d <= t +. eps && d > !best then best := d)
    m.disturbances;
  !best

let in_window windows t = List.exists (fun (s, e) -> s <= t && t < e) windows

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
   only once — a 2-second excursion is one finding, not forty. *)
let judge m ~tick ~time kind bad detail =
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
      record m ~tick ~time kind detail
    end
  end
  else begin
    m.streaks.(k) <- 0;
    m.reported.(k) <- false
  end

let opp_member table f = Array.exists (( = ) f) table.Opp.freqs_mhz

let check m ~runner ~sup ~obs =
  let t = obs.Soc.time in
  let tick = Spectr.Scenario.ticks_done runner - 1 in
  let soc = Spectr.Scenario.runner_soc runner in
  (* The phase of the tick just run: the runner advances its phase
     cursor only when the next tick starts. *)
  let phase, _ = Spectr.Scenario.current_phase runner in
  let epoch = last_disturbance m t in
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
    (not (in_window m.actuator_windows t))
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
    (not (in_window m.fault_windows t))
    && phase.Spectr.Scenario.background_tasks = 0
    && envelope >= m.tdp -. eps
    && since_disturbance > limits.qos_deadline_s
    && true_qos < qos_floor
  in
  judge m ~tick ~time:t Qos_reconvergence qos_bad
    (fun () ->
      Printf.sprintf
        "true QoS rate %.2f < %.2f (%.0f%% of reference %.2f) in a quiet \
         region, %.2f s after the last disturbance"
        true_qos qos_floor (100. *. limits.qos_floor) m.qos_ref since_disturbance);
  (* Supervisor legality: restore-corruption tripwires.  Bounds are
     deliberately loose — they catch a scrambled checkpoint, not a
     tuning difference. *)
  (match sup with
  | None -> ()
  | Some sup ->
      let state_problem =
        match Spectr.Supervisor.state sup with
        | (_ : string) -> None
        | exception Invalid_argument msg -> Some msg
      in
      let mode = Spectr.Supervisor.gains_mode sup in
      let host = Spectr.Supervisor.host_cluster sup in
      let budget_problem () =
        (* Host budget may roam up to the TDP; each secondary cluster's
           static share stays small.  Bounds scale with the platform's
           cluster count through the supervisor itself. *)
        let k = Spectr.Supervisor.num_clusters sup in
        let rec check i =
          if i >= k then None
          else
            let r = Spectr.Supervisor.power_ref sup i in
            let label = if i = host then "host" else "secondary" in
            let hi = if i = host then m.tdp +. 0.5 else 1.5 in
            if not (Float.is_finite r) then
              Some
                (Printf.sprintf "non-finite budget (%s cluster %d: %g)" label
                   i r)
            else if r < 0.05 || r > hi then
              Some
                (Printf.sprintf
                   "%s cluster %d budget %.3f W outside [0.05, %.2f]" label i
                   r hi)
            else check (i + 1)
        in
        check 0
      in
      let problem =
        match state_problem with
        | Some msg -> Some ("illegal automaton state: " ^ msg)
        | None ->
            if not (mode = "qos" || mode = "power") then
              Some (Printf.sprintf "unknown gains mode %S" mode)
            else budget_problem ()
      in
      judge m ~tick ~time:t Supervisor_legal
        (Option.is_some problem)
        (fun () -> Option.value problem ~default:""));
  (* Actuation bounds: whatever was applied must be a real OPP and a
     legal core count — a manager must never be able to command the
     platform outside its tables. *)
  let act_problem =
    let k = Soc.num_clusters soc in
    let rec check i =
      if i >= k then None
      else
        let f = Soc.frequency soc i in
        let c = Soc.active_cores soc i in
        let max_c = Soc.cluster_cores soc i in
        if not (opp_member (Soc.opp_table soc i) f) then
          Some
            (Printf.sprintf "cluster %d at %d MHz, not an OPP of its table" i
               f)
        else if c < 1 || c > max_c then
          Some
            (Printf.sprintf "cluster %d at %d active cores outside [1, %d]" i
               c max_c)
        else check (i + 1)
    in
    check 0
  in
  judge m ~tick ~time:t Actuation_bounds
    (Option.is_some act_problem)
    (fun () ->
      "applied state outside platform tables: "
      ^ Option.value act_problem ~default:"");
  (* Non-finite tripwire over everything a manager or evaluator reads. *)
  let powers = Soc.sensor_powers soc in
  let finite_bad =
    not
      (Float.is_finite obs.Soc.qos_rate
      && Array.for_all Float.is_finite powers
      && Float.is_finite obs.Soc.chip_power
      && Float.is_finite true_power && Float.is_finite true_qos)
  in
  judge m ~tick ~time:t Non_finite finite_bad
    (fun () ->
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
