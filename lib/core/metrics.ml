open Spectr_linalg
open Spectr_platform

type phase_metrics = {
  phase_name : string;
  qos_error_pct : float;
  power_error_pct : float;
  power_settling_s : float option;
  compliance_time_s : float option;
  energy_j : float;
  energy_per_heartbeat_j : float;
}

(* Measurement allowance on the envelope for the compliance/recovery
   metrics: power counts as compliant up to envelope × 1.02.  This is a
   *metrology* tolerance — it absorbs sensor quantization and the
   controller's one-period actuation lag so the §5.1.1 responsiveness
   numbers aren't dominated by ±1-LSB flutter at the cap.  It is
   deliberately tighter than the 5 % *safety* guardband the chaos
   invariants allow (Spectr_chaos.Invariants.limits.guardband):
   an evaluation metric asks "how close to the envelope does the
   controller regulate", a soak invariant asks "did the chip stay inside
   the thermal design's safety margin".  Keep the two distinct. *)
let power_allowance = 1.02

(* Seconds from sample [after] to the first sample from which [ok]
   holds for every remaining sample of the [n]: one past the last bad
   sample, times [dt].  [None] when the last sample is bad or there is
   no sample from [after] on. *)
let good_suffix ~dt ~after n ok =
  let last_bad = ref (after - 1) in
  for i = after to n - 1 do
    if not (ok i) then last_bad := i
  done;
  if !last_bad >= n - 1 then None
  else Some (float_of_int (!last_bad + 1 - after) *. dt)

(* First time from which chip power stays at or under the per-sample
   envelope (times the allowance) for the rest of the phase, so a
   stepping envelope (chaos fault windows, fleet re-budgets landing
   mid-phase) is judged tick by tick. *)
let compliance_time_series ~envelope ~dt power =
  let n = Array.length power in
  if Array.length envelope <> n then
    invalid_arg
      (Printf.sprintf
         "Metrics.compliance_time_series: envelope/power length mismatch \
          (%d vs %d)"
         (Array.length envelope) n);
  good_suffix ~dt ~after:0 n (fun i ->
      power.(i) <= envelope.(i) *. power_allowance)

(* Seconds from sample [after] until power drops to — and stays at or
   under — the allowance-widened envelope: find the last offending
   sample and step past it. *)
let recovery_time ~envelope ~dt ~after power =
  let limit = envelope *. power_allowance in
  good_suffix ~dt ~after (Array.length power) (fun i -> power.(i) <= limit)

(* Tail-averaged steady-state error against a per-sample reference:
   mean of (reference_i − measured_i) over the tail, as a percent of the
   tail-mean reference.  The generalization of
   [Stats.steady_state_error] a stepping envelope needs.  A constant
   envelope keeps the scalar [Stats.steady_state_error] in {!per_phase}:
   dividing by [ref_sum / k] can round differently from dividing by the
   reference itself. *)
let steady_state_error_series ~reference ~measured ~tail =
  let n = Array.length measured in
  let k = max 1 (min tail n) in
  let err = ref 0. and ref_sum = ref 0. in
  for i = n - k to n - 1 do
    err := !err +. (reference.(i) -. measured.(i));
    ref_sum := !ref_sum +. reference.(i)
  done;
  let avg = !err /. float_of_int k in
  let ref_avg = !ref_sum /. float_of_int k in
  if ref_avg = 0. then avg else 100. *. avg /. ref_avg

(* Settling against a per-sample reference: the band tracks the stepping
   envelope instead of whatever the phase's first sample happened to
   hold. *)
let settling_time_series ~reference ~band ~dt y =
  good_suffix ~dt ~after:0 (Array.length y) (fun i ->
      Float.abs (y.(i) -. reference.(i)) <= Float.abs (band *. reference.(i)))

let constant arr =
  let n = Array.length arr in
  let rec go i = i >= n || (arr.(i) = arr.(0) && go (i + 1)) in
  go 1

let per_phase ~trace ~config =
  let bounds = Scenario.phase_bounds config in
  (* A phase whose duration rounds to zero controller periods records no
     samples; skip it rather than slicing an empty column. *)
  let bounds = List.filter (fun (_, from, upto) -> upto > from) bounds in
  List.map
    (fun (phase_name, from, upto) ->
      let qos = Trace.column_slice trace "qos" ~from ~upto in
      let power = Trace.column_slice trace "power" ~from ~upto in
      (* The envelope is a per-tick column: a phase whose envelope steps
         mid-phase (chaos fault windows, fleet cap re-budgets) must be
         judged against the tick-by-tick value, not the slice's first
         sample. *)
      let envelopes = Trace.column_slice trace "envelope" ~from ~upto in
      let n = Array.length qos in
      let tail = max 1 (int_of_float (0.4 *. float_of_int n)) in
      let dt = config.Scenario.controller_period in
      let energy_j = dt *. Array.fold_left ( +. ) 0. power in
      let heartbeats = dt *. Array.fold_left ( +. ) 0. qos in
      {
        phase_name;
        qos_error_pct =
          Stats.steady_state_error ~reference:config.Scenario.qos_ref
            ~measured:qos ~tail;
        power_error_pct =
          (if constant envelopes then
             Stats.steady_state_error ~reference:envelopes.(0) ~measured:power
               ~tail
           else
             steady_state_error_series ~reference:envelopes ~measured:power
               ~tail);
        power_settling_s =
          settling_time_series ~reference:envelopes ~band:0.05 ~dt power;
        compliance_time_s =
          compliance_time_series ~envelope:envelopes ~dt power;
        energy_j;
        energy_per_heartbeat_j =
          (if heartbeats > 0. then energy_j /. heartbeats else infinity);
      })
    bounds

let pp_phase_metrics ppf m =
  let pp_time = function
    | Some s -> Printf.sprintf "%.2fs" s
    | None -> "never"
  in
  Format.fprintf ppf
    "%-12s qos %+7.2f%%  power %+7.2f%%  settle %s  comply %s  %.3f J/HB"
    m.phase_name m.qos_error_pct m.power_error_pct
    (pp_time m.power_settling_s)
    (pp_time m.compliance_time_s)
    m.energy_per_heartbeat_j

let find metrics name =
  match List.find_opt (fun m -> m.phase_name = name) metrics with
  | Some m -> m
  | None ->
      (* A bare [Not_found] out of a bench table is undiagnosable — name
         the missing phase and what was actually available. *)
      invalid_arg
        (Printf.sprintf "Metrics.find: no phase %S (available: %s)" name
           (match metrics with
           | [] -> "none"
           | _ ->
               String.concat ", "
                 (List.map (fun m -> Printf.sprintf "%S" m.phase_name) metrics)))

let qos_of metrics name = (find metrics name).qos_error_pct
let power_of metrics name = (find metrics name).power_error_pct
