(* Robustness table: every fault class of Spectr_platform.Faults crossed
   with four managers — SPECTR with the graceful-degradation guards
   (SPECTR+G), unguarded SPECTR, the MM-Pow heuristic and the SISO PID
   baseline.

   Each cell runs a 12 s x264 scenario on the chaos campaigns' stress
   profile (Spectr_chaos.Campaign.phases: safe 5 W / stress 3.5 W with
   16 background tasks / recovery 5 W) with one fault injected around
   the stress phase, then reports

   - excess: time spent more than 5 % above the envelope after the fault
     hits (sustained violation, not the transient at a phase boundary),
   - recovery: time from fault clearance until chip power re-complies
     with the envelope for the rest of the run,
   - the verdict — RECOVERS, VIOLATES (sustained excess or no
     recovery) or DIVERGES (a non-finite value reached the trace).

   The bench passes when SPECTR+G recovers for every fault class while
   the unguarded SPECTR violates or diverges for at least one. *)

open Spectr_platform

let dt = Spectr_chaos.Campaign.dt

(* Fault windows are attached to the first phase (which starts at t = 0),
   so phase-relative and absolute times coincide.  Sensor faults start
   after the emergency drop has been absorbed; actuator faults start in
   the safe phase so the actuators are stuck at high-power settings when
   the envelope drops at t = 3 s. *)
let classes =
  [
    ("no fault (control)", None, 3.5, 6.5);
    ("power dropout", Some (Faults.Dropout Power), 3.5, 6.5);
    ("qos stuck", Some (Faults.Stuck_at_last Qos), 3.5, 6.5);
    ("heartbeat stall", Some Faults.Heartbeat_stall, 3.5, 6.5);
    ("power spikes", Some (Faults.Spike_burst (Power, 5.)), 3.5, 6.5);
    ("dvfs stuck", Some Faults.Dvfs_stuck, 1.0, 6.5);
    ("gating refused", Some Faults.Gating_refused, 1.0, 6.5);
  ]

let config_for fault ~start_s ~stop_s =
  let injections =
    match fault with
    | None -> []
    | Some f -> [ Faults.injection f ~start_s ~stop_s ]
  in
  {
    (Spectr.Scenario.default_config Benchmarks.x264) with
    Spectr.Scenario.phases = Spectr_chaos.Campaign.phases injections;
  }

type verdict = Recovers | Violates | Diverges

type cell = {
  verdict : verdict;
  excess_s : float;
  recovery_s : float option;
  watchdog : float list; (* guarded manager's own recovery times *)
}

let index_at time t =
  let n = Array.length time in
  let rec go i = if i >= n || time.(i) >= t then i else go (i + 1) in
  go 0

let evaluate ~trace ~onset ~clearance ~watchdog =
  let time = Trace.column trace "time" in
  (* Judge safety on ground truth: under a sensor fault the [power]
     column holds the corrupted reading the managers saw. *)
  let power =
    if List.mem "true_power" (Trace.columns trace) then
      Trace.column trace "true_power"
    else Trace.column trace "power"
  in
  let qos = Trace.column trace "qos" in
  let envelope = Trace.column trace "envelope" in
  let n = Array.length time in
  let finite = ref true in
  for i = 0 to n - 1 do
    if not (Float.is_finite power.(i) && Float.is_finite qos.(i)) then
      finite := false
  done;
  let onset_i = index_at time onset in
  let excess_s = ref 0. in
  for i = onset_i to n - 1 do
    if power.(i) > envelope.(i) *. 1.05 then excess_s := !excess_s +. dt
  done;
  (* Margin signal: compliant where power <= envelope + 2 %. *)
  let margin = Array.init n (fun i -> power.(i) -. (envelope.(i) *. 1.02)) in
  let after = index_at time clearance in
  let recovery_s =
    Spectr.Metrics.recovery_time ~envelope:0. ~dt ~after margin
  in
  let verdict =
    if not !finite then Diverges
    else if recovery_s = None || !excess_s > 1.0 then Violates
    else Recovers
  in
  { verdict; excess_s = !excess_s; recovery_s; watchdog }

(* Constructors, not instances: each grid cell builds its own manager
   (and guard state) inside its parallel task. *)
let manager_specs =
  [
    ( "SPECTR+G",
      fun () ->
        let guards = Spectr.Guarded.create () in
        (fst (Spectr.Spectr_manager.make ~guards ()), Some guards) );
    ("SPECTR", fun () -> (fst (Spectr.Spectr_manager.make ()), None));
    ("MM-Pow", fun () -> (Spectr.Mm.make_pow (), None));
    ("SISO", fun () -> (Spectr.Siso.make (), None));
  ]

let pp_cell c =
  let verdict =
    match c.verdict with
    | Recovers -> "RECOVERS"
    | Violates -> "VIOLATES"
    | Diverges -> "DIVERGES"
  in
  let recovery =
    match c.recovery_s with
    | Some s -> Printf.sprintf "rec %4.1fs" s
    | None -> "rec  never"
  in
  Printf.sprintf "%-8s %s exc %4.1fs" verdict recovery c.excess_s

let run () =
  Util.heading
    "Robustness: fault classes x managers, x264 (safe 5 W 0-3 s / stress \
     3.5 W 3-7 s / recovery 5 W 7-12 s)";
  (* One task per (fault class x manager) cell; the flat, submission-
     ordered results are regrouped by class for printing. *)
  let cell_inputs =
    List.concat_map
      (fun (class_name, fault, start_s, stop_s) ->
        List.map
          (fun spec -> (class_name, fault, start_s, stop_s, spec))
          manager_specs)
      classes
  in
  let cells_flat =
    Spectr_exec.Parmap.map
      (fun (_, fault, start_s, stop_s, (mgr_name, make)) ->
        let cfg = config_for fault ~start_s ~stop_s in
        let manager, guards = make () in
        let trace = Spectr.Scenario.run ~manager cfg in
        let watchdog =
          match guards with
          | None -> []
          | Some g -> Spectr.Guarded.recovery_times g
        in
        (mgr_name, evaluate ~trace ~onset:start_s ~clearance:stop_s ~watchdog))
      cell_inputs
  in
  let per_class = List.length manager_specs in
  let results =
    List.mapi
      (fun i (class_name, _, _, _) ->
        (class_name, List.filteri (fun j _ -> j / per_class = i) cells_flat))
      classes
  in
  List.iter
    (fun (class_name, cells) ->
      Util.subheading class_name;
      List.iter
        (fun (mgr_name, c) ->
          Printf.printf "  %-9s %s%s\n" mgr_name (pp_cell c)
            (match c.watchdog with
            | [] -> ""
            | ts ->
                Printf.sprintf "  (watchdog degraded %d time%s, longest %.1fs)"
                  (List.length ts)
                  (if List.length ts = 1 then "" else "s")
                  (List.fold_left Float.max 0. ts)))
        cells)
    results;
  let cell name cells = List.assoc name cells in
  let guarded_ok =
    List.for_all
      (fun (_, cells) -> (cell "SPECTR+G" cells).verdict = Recovers)
      results
  in
  let unguarded_fails =
    List.exists
      (fun (_, cells) -> (cell "SPECTR" cells).verdict <> Recovers)
      results
  in
  Util.subheading "verdict";
  Printf.printf "  SPECTR+G recovers in all %d fault classes: %b\n"
    (List.length results) guarded_ok;
  Printf.printf "  unguarded SPECTR violates/diverges in at least one: %b\n"
    unguarded_fails;
  Printf.printf "  %s\n"
    (if guarded_ok && unguarded_fails then "PASS" else "FAIL")
