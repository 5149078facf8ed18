open Spectr_platform

type phase = {
  phase_name : string;
  duration_s : float;
  envelope : float;
  background_tasks : int;
  phase_faults : Faults.injection list;
}

type config = {
  workload : Workload.t;
  platform : Platform_desc.t;
  qos_ref : float;
  phases : phase list;
  controller_period : float;
  seed : int64;
}

let default_phases ?(tdp = 5.0) ?(emergency = 3.5) () =
  [
    {
      phase_name = "safe";
      duration_s = 5.;
      envelope = tdp;
      background_tasks = 0;
      phase_faults = [];
    };
    {
      phase_name = "emergency";
      duration_s = 5.;
      envelope = emergency;
      background_tasks = 0;
      phase_faults = [];
    };
    {
      phase_name = "disturbance";
      duration_s = 5.;
      envelope = tdp;
      background_tasks = 16;
      phase_faults = [];
    };
  ]

(* 60 FPS is only meaningful where it is achievable: x264 on the
   reference Exynos.  Elsewhere the reference scales with the host
   cluster's reachable rate, as in Phase 1 of the paper. *)
let default_qos_ref platform workload =
  if
    workload.Workload.name = "x264"
    && Design_flow.is_reference_platform platform
  then 60.
  else 0.75 *. Perf_model.max_qos_rate_for platform workload

let default_config ?(seed = 42L) ?qos_ref ?(platform = Platform_desc.exynos5422)
    workload =
  let qos_ref =
    match qos_ref with
    | Some r -> r
    | None -> default_qos_ref platform workload
  in
  {
    workload;
    platform;
    qos_ref;
    phases = default_phases ();
    controller_period = 0.05;
    seed;
  }

(* Trace columns are derived from the description: one [<name>_power]
   per cluster, then a [<name>_freq_mhz]/[<name>_cores] pair per
   cluster.  On exynos5422 (clusters "big", "little") this reproduces
   the historical header byte for byte. *)
let columns_of platform =
  let k = Platform_desc.num_clusters platform in
  let name i = Platform_desc.cluster_name platform i in
  [ "time"; "qos"; "qos_ref"; "power"; "envelope" ]
  @ List.init k (fun i -> name i ^ "_power")
  @ List.concat_map
      (fun i -> [ name i ^ "_freq_mhz"; name i ^ "_cores" ])
      (List.init k Fun.id)
  @ [ "background"; "phase" ]

let fault_columns_of platform = columns_of platform @ [ "faults"; "true_power" ]
let columns = columns_of Platform_desc.exynos5422
let fault_columns = fault_columns_of Platform_desc.exynos5422

let steps_of_phase config ph =
  int_of_float (Float.round (ph.duration_s /. config.controller_period))

let total_ticks config =
  List.fold_left (fun acc ph -> acc + steps_of_phase config ph) 0 config.phases

(* Phase fault windows are phase-relative; fold them into one absolute
   schedule for the whole run. *)
let fault_schedule config =
  (* Accumulate reversed and concatenate once: appending with [acc @ ...]
     per phase is quadratic in the number of injections. *)
  let _, rev_injections =
    List.fold_left
      (fun (start, acc) ph ->
        ( start +. ph.duration_s,
          List.rev_append (Faults.shift ph.phase_faults ~by:start) acc ))
      (0., []) config.phases
  in
  List.rev rev_injections

(* --- the closed loop ---------------------------------------------------- *)

(* QoS is observed through the Heartbeats monitor (§5): the application
   issues heartbeats as it completes work and the managers read the
   windowed rate, not an instantaneous sensor. *)
let heartbeat_monitor ~qos_ref =
  Heartbeats.create ~window:0.25 ~reference:qos_ref ()

let close_loop soc hb obs ~manager ~dt ~qos_ref ~envelope =
  Soc.step_into soc ~dt obs;
  (* A stalled heartbeat monitor receives no beats at all; the windowed
     rate then decays to zero while the app still runs. *)
  let stalled =
    match Soc.faults soc with
    | None -> false
    | Some f -> Faults.heartbeat_stalled f
  in
  (* Managers observe QoS through the windowed heartbeat rate, not the
     instantaneous sensor (which feeds the monitor first). *)
  Heartbeats.observe hb obs ~dt ~stalled;
  manager.Manager.step ~now:obs.Soc.time ~qos_ref ~envelope ~obs soc

(* --- tick-at-a-time execution engine --------------------------------- *)

(* The platform half of a running scenario: SoC, fault schedule,
   heartbeat monitor, trace and phase cursor.  The manager is passed to
   every [tick] instead of being owned by the runner — that is what lets
   the chaos engine kill a manager mid-run, build a fresh one, restore
   its checkpoint and keep driving the {e same} platform (hardware does
   not reboot when the resource-manager daemon crashes). *)
type runner = {
  r_config : config;
  r_k : int; (* cluster count, fixes the row layout *)
  r_soc : Soc.t;
  r_faults : Faults.t option;
  r_hb : Heartbeats.t;
  r_trace : Trace.t;
  r_phases : phase array;
  r_steps : int array; (* steps per phase *)
  mutable r_phase : int; (* current phase index, or length when done *)
  mutable r_done_in_phase : int;
  mutable r_tick : int;
  (* Tick-path buffers, owned by the runner and rewritten in place every
     tick: the observation handed to the manager (and returned by
     [tick] — valid until the next tick) and the trace row ([Trace.add]
     copies it into column storage). *)
  r_obs : Soc.observation;
  r_some_obs : Soc.observation option; (* [Some r_obs], built once *)
  r_row : float array;
  (* Ground truth ([Soc.ground_truth]: chip power, QoS rate) at the end
     of tick [r_truth_tick], from one physics pass shared by the
     [true_power] column and {!ground_truth}'s readers. *)
  r_truth : float array;
  mutable r_truth_tick : int;
}

let start config =
  let soc_config = { (Soc.config_of config.platform) with seed = config.seed } in
  let soc =
    Soc.create ~config:soc_config ~platform:config.platform
      ~qos:config.workload ()
  in
  let injections = fault_schedule config in
  (* Fault injection is strictly opt-in: with no schedule the SoC keeps
     faults = None and the extra trace column is omitted, so existing
     figures and benches reproduce bit-identical traces. *)
  let faults =
    match injections with
    | [] -> None
    | _ :: _ -> Some (Faults.create injections)
  in
  Soc.set_faults soc faults;
  let run_columns =
    match faults with
    | None -> columns_of config.platform
    | Some _ -> fault_columns_of config.platform
  in
  let trace =
    (* Preallocate the full run's rows: recording then never reallocates
       column storage mid-run. *)
    Trace.create ~cap:(max 1 (total_ticks config)) ~columns:run_columns ()
  in
  let hb = heartbeat_monitor ~qos_ref:config.qos_ref in
  let phases = Array.of_list config.phases in
  let obs = Soc.make_observation () in
  let r =
    {
      r_config = config;
      r_k = Platform_desc.num_clusters config.platform;
      r_soc = soc;
      r_faults = faults;
      r_hb = hb;
      r_trace = trace;
      r_phases = phases;
      r_steps = Array.map (steps_of_phase config) phases;
      r_phase = 0;
      r_done_in_phase = 0;
      r_tick = 0;
      r_obs = obs;
      r_some_obs = Some obs;
      r_row = Array.make (List.length run_columns) 0.;
      r_truth = Array.make 2 0.;
      r_truth_tick = -1;
    }
  in
  (* Enter the first non-empty phase, applying the background load of
     every phase passed through (matching the sequential driver, where
     zero-length phases still set — and are immediately overridden —
     their background count before any step runs). *)
  (if Array.length phases > 0 then
     Soc.set_background_tasks soc phases.(0).background_tasks);
  r

let trace r = r.r_trace
let runner_soc r = r.r_soc

(* The truth after [ticks] ticks, computed once. *)
let truth_at r ticks =
  if r.r_truth_tick <> ticks then begin
    Soc.ground_truth r.r_soc r.r_truth;
    r.r_truth_tick <- ticks
  end;
  r.r_truth

let ground_truth r = truth_at r r.r_tick
let ticks_done r = r.r_tick

let phase_index r = min r.r_phase (Array.length r.r_phases - 1)
let phase r = r.r_phases.(phase_index r)
let current_phase r = (phase r, phase_index r)

(* Advance the phase cursor to the next phase with steps remaining,
   applying each entered phase's background load in order. *)
let rec enter r =
  if r.r_phase < Array.length r.r_phases
     && r.r_done_in_phase >= r.r_steps.(r.r_phase)
  then begin
    r.r_phase <- r.r_phase + 1;
    r.r_done_in_phase <- 0;
    if r.r_phase < Array.length r.r_phases then begin
      Soc.set_background_tasks r.r_soc r.r_phases.(r.r_phase).background_tasks;
      enter r
    end
  end

let tick r ~manager =
  enter r;
  if r.r_phase >= Array.length r.r_phases then None
  else begin
    let config = r.r_config in
    let ph = r.r_phases.(r.r_phase) in
    let phase_idx = r.r_phase in
    let soc = r.r_soc in
    let obs = r.r_obs in
    close_loop soc r.r_hb obs ~manager ~dt:config.controller_period
      ~qos_ref:config.qos_ref ~envelope:ph.envelope;
    let row = r.r_row in
    let k = r.r_k in
    row.(0) <- obs.Soc.time;
    row.(1) <- obs.Soc.qos_rate;
    row.(2) <- config.qos_ref;
    row.(3) <- obs.Soc.chip_power;
    row.(4) <- ph.envelope;
    let powers = Soc.sensor_powers soc in
    for i = 0 to k - 1 do
      row.(5 + i) <- powers.(i)
    done;
    for i = 0 to k - 1 do
      row.(5 + k + (2 * i)) <- float_of_int (Soc.frequency soc i);
      row.(6 + k + (2 * i)) <- float_of_int (Soc.active_cores soc i)
    done;
    row.(5 + (3 * k)) <- float_of_int ph.background_tasks;
    row.(6 + (3 * k)) <- float_of_int phase_idx;
    (match r.r_faults with
    | None -> ()
    | Some f ->
        (* Under sensor faults the [power] column records what the
           managers saw (the corrupted reading); [true_power] is
           the ground truth a safety evaluation must use. *)
        row.(7 + (3 * k)) <- float_of_int (Faults.active_count f);
        row.(8 + (3 * k)) <- (truth_at r (r.r_tick + 1)).(0));
    Trace.add r.r_trace row;
    r.r_done_in_phase <- r.r_done_in_phase + 1;
    r.r_tick <- r.r_tick + 1;
    r.r_some_obs
  end

let run ~manager config =
  let r = start config in
  let rec go () = match tick r ~manager with Some _ -> go () | None -> () in
  go ();
  r.r_trace

let phase_bounds config =
  let _, bounds =
    List.fold_left
      (fun (start, acc) ph ->
        let n = steps_of_phase config ph in
        (start + n, (ph.phase_name, start, start + n) :: acc))
      (0, []) config.phases
  in
  List.rev bounds
