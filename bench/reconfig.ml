(* Reconfiguration table: permanent fault classes × platform
   descriptions × three managers — self-healing SPECTR+R (FDIR plus
   supervisor re-synthesis), guarded SPECTR+G (detects and falls back,
   never reconfigures) and unguarded SPECTR.

   Each cell runs a 12 s x264 scenario at the full 5 W envelope with one
   PERMANENT fault latched at t = 2 s (a dead secondary cluster, that
   cluster's power sensor dead, or a permanently latched DVFS rail),
   followed by a 4-task background disturbance in the last 4 s.  Unlike
   the robustness table's transient faults, these never clear: the only
   way back to closed-loop control is to re-derive the supervisor for
   the degraded description.  Reported per cell:

   - excess: time spent more than 5 % above the envelope after the
     FDIR ladder has had time to settle (onset 2 s + 3 s detection +
     swap window + guard recovery dwell ≈ 7 s),
   - qos: mean heartbeat rate over the final 3 s as a fraction of the
     reference — re-convergence, or the cost of open-loop fallback,
   - for SPECTR+R the hot-swap count and final FDIR-ladder rung; for
     the guarded managers whether the watchdog is still degraded at the
     end of the run.

   The bench passes when SPECTR+R ends every cell reconfigured (at
   least one hot-swap, bounded excess) while SPECTR+G is left in
   open-loop fallback — with the QoS gap visible — in at least one.

   Re-synthesis wall times go to stderr: stdout stays byte-identical
   across SPECTR_JOBS settings (pinned by `make reconfig-smoke`). *)

open Spectr_platform

let smoke = ref false
let dt = 0.05
let tdp = 5.0
let onset_s = 2.0

(* Onset + FDIR permanent verdict (3 s of persistence) + swap window +
   guard recovery dwell, rounded up. *)
let settle_s = 7.0
let total_s = 12.0

let platforms () =
  if !smoke then [ Platform_desc.exynos5422 ]
  else
    [ Platform_desc.exynos5422; Platform_desc.pixel8pro;
      Platform_desc.k_cluster 4 ]

(* First non-host cluster: the faults target a secondary so every
   manager keeps a live host — SPECTR+R's recoverable regime. *)
let secondary p =
  let host = Platform_desc.host p in
  let rec go i = if i = host then go (i + 1) else i in
  go 0

let classes p =
  [
    ("cluster dead", Faults.Cluster_dead (secondary p));
    ("power sensor dead", Faults.Sensor_dead (Power_cluster (secondary p)));
    ("dvfs latched", Faults.Dvfs_stuck_permanent);
  ]

let config_for platform fault =
  let phase name ~duration_s ~envelope ~background_tasks ~faults =
    {
      Spectr.Scenario.phase_name = name;
      duration_s;
      envelope;
      background_tasks;
      phase_faults = faults;
    }
  in
  {
    (Spectr.Scenario.default_config ~platform Benchmarks.x264) with
    Spectr.Scenario.phases =
      [
        phase "healthy-then-fault" ~duration_s:8. ~envelope:tdp
          ~background_tasks:0
          ~faults:[ Faults.permanent fault ~start_s:onset_s ];
        (* A load disturbance AFTER the fault: a reconfigured manager
           must still regulate on the degraded plant, not merely idle. *)
        phase "disturb" ~duration_s:4. ~envelope:tdp ~background_tasks:4
          ~faults:[];
      ];
  }

type cell = {
  finite : bool;
  excess_s : float;
  qos_frac : float;  (* mean qos over the last 3 s / reference *)
  swaps : int;  (* SPECTR+R hot-swaps; 0 elsewhere *)
  rung : string option;  (* SPECTR+R final ladder rung *)
  stuck_degraded : bool;  (* guard still in fallback at the end *)
}

let evaluate ~qos_ref ~trace ~handle ~guards =
  let time = Trace.column trace "time" in
  let power =
    if List.mem "true_power" (Trace.columns trace) then
      Trace.column trace "true_power"
    else Trace.column trace "power"
  in
  let qos = Trace.column trace "qos" in
  let envelope = Trace.column trace "envelope" in
  let n = Array.length time in
  let finite = ref true in
  let excess_s = ref 0. in
  let qos_sum = ref 0. and qos_n = ref 0 in
  for i = 0 to n - 1 do
    if not (Float.is_finite power.(i) && Float.is_finite qos.(i)) then
      finite := false;
    if time.(i) >= settle_s && power.(i) > envelope.(i) *. 1.05 then
      excess_s := !excess_s +. dt;
    if time.(i) >= total_s -. 3.0 then begin
      qos_sum := !qos_sum +. qos.(i);
      incr qos_n
    end
  done;
  {
    finite = !finite;
    excess_s = !excess_s;
    qos_frac =
      (if !qos_n = 0 then 0.
       else !qos_sum /. float_of_int !qos_n /. qos_ref);
    swaps =
      (match handle with
      | None -> 0
      | Some h -> Spectr.Spectr_manager.Reconfig.reconfigurations h);
    rung =
      Option.map
        (fun h -> Spectr.Spectr_manager.Reconfig.(status_label (status h)))
        handle;
    stuck_degraded =
      (match guards with
      | None -> false
      | Some g -> Spectr.Guarded.degraded g);
  }

(* Variants, not instances: each grid cell builds its own manager inside
   its parallel task. *)
let managers = Spectr.Variant.[ Spectr_r; Spectr_g; Spectr ]

let pp_cell c =
  let tail =
    match c.rung with
    | Some rung -> Printf.sprintf "  (%d swap%s, ends %s)" c.swaps
        (if c.swaps = 1 then "" else "s") rung
    | None when c.stuck_degraded -> "  (watchdog still degraded at end)"
    | None -> ""
  in
  Printf.sprintf "exc %4.1fs  qos %3.0f%%%s" c.excess_s
    (100. *. c.qos_frac) tail

let run () =
  Util.heading
    "Reconfiguration: permanent faults x platforms, x264 (5 W envelope, \
     fault latched at 2 s, background disturbance 8-12 s)";
  let cell_inputs =
    List.concat_map
      (fun platform ->
        List.concat_map
          (fun (class_name, fault) ->
            List.map (fun v -> (platform, class_name, fault, v)) managers)
          (classes platform))
      (platforms ())
  in
  let cells_flat =
    Spectr_exec.Parmap.map
      (fun (platform, class_name, fault, v) ->
        let cfg = config_for platform fault in
        let manager, _, guards, handle = Spectr.Variant.make platform v in
        let trace = Spectr.Scenario.run ~manager cfg in
        (match handle with
        | Some h when Spectr.Spectr_manager.Reconfig.reconfigurations h > 0
          ->
            (* Wall time, stderr only: stdout must not depend on load. *)
            Printf.eprintf "reconfig: %s/%s re-synthesis %.1f ms\n%!"
              (Platform_desc.name platform)
              class_name
              (1000. *. Spectr.Spectr_manager.Reconfig.last_resynth_s h)
        | _ -> ());
        ( Platform_desc.name platform,
          class_name,
          Spectr.Variant.name v,
          evaluate ~qos_ref:cfg.Spectr.Scenario.qos_ref ~trace ~handle
            ~guards ))
      cell_inputs
  in
  let last_platform = ref "" and last_class = ref "" in
  List.iter
    (fun (platform, class_name, mgr_name, c) ->
      if platform <> !last_platform then begin
        Util.subheading platform;
        last_platform := platform;
        last_class := ""
      end;
      if class_name <> !last_class then begin
        Printf.printf "  %s\n" class_name;
        last_class := class_name
      end;
      Printf.printf "    %-9s %s\n" mgr_name (pp_cell c))
    cells_flat;
  let r_cells =
    List.filter_map
      (fun (_, _, m, c) -> if m = "SPECTR+R" then Some c else None)
      cells_flat
  in
  let g_fallback_with_gap =
    List.exists
      (fun (p, cl, m, c) ->
        m = "SPECTR+G" && c.stuck_degraded
        && List.exists
             (fun (p', cl', m', c') ->
               m' = "SPECTR+R" && p' = p && cl' = cl
               && c'.qos_frac > 2. *. c.qos_frac)
             cells_flat)
      cells_flat
  in
  let r_ok =
    List.for_all
      (fun c ->
        c.finite && c.swaps >= 1 && c.rung = Some "reconfigured"
        && c.excess_s <= 1.0)
      r_cells
  in
  Util.subheading "verdict";
  Printf.printf
    "  SPECTR+R reconfigures (>= 1 hot-swap, bounded excess) in all %d \
     cells: %b\n"
    (List.length r_cells) r_ok;
  Printf.printf
    "  SPECTR+G left in open-loop fallback with a >2x QoS gap somewhere: \
     %b\n"
    g_fallback_with_gap;
  Printf.printf "  %s\n"
    (if r_ok && g_fallback_with_gap then "PASS" else "FAIL")
