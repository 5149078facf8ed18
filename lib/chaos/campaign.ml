open Spectr_platform

type variant = Spectr.Variant.t =
  | Spectr_r | Spectr_g | Spectr | Mm_pow | Mm_perf | Siso | Fs

(* [Spectr_r] is deliberately absent: the default round-robin variant
   assignment of existing campaigns (and their pinned digests) must not
   shift.  Reconfiguration campaigns opt in with [variants = [Spectr_r; …]]. *)
let all_variants = [ Spectr_g; Spectr; Mm_pow; Mm_perf; Siso; Fs ]

let variant_name = Spectr.Variant.name
let make_manager = Spectr.Variant.make Platform_desc.exynos5422

(* --- scenario shape --------------------------------------------------- *)

let dt = 0.05

(* The robustness-bench shape: benign start, a thermal-emergency phase
   whose background load makes the QoS reference unachievable within the
   reduced envelope (a manager that trusts a lying sensor chases QoS
   straight through the cap), then a long benign tail in which the
   re-convergence invariants are judged. *)
let phases injections =
  [
    {
      Spectr.Scenario.phase_name = "safe";
      duration_s = 3.0;
      envelope = 5.0;
      background_tasks = 0;
      (* All windows ride on the first phase (start 0), so phase-relative
         and absolute times coincide and a window may span any phase. *)
      phase_faults = injections;
    };
    {
      phase_name = "stress";
      duration_s = 4.0;
      envelope = 3.5;
      background_tasks = 16;
      phase_faults = [];
    };
    {
      phase_name = "recovery";
      duration_s = 5.0;
      envelope = 5.0;
      background_tasks = 0;
      phase_faults = [];
    };
  ]

let total_s =
  List.fold_left (fun acc ph -> acc +. ph.Spectr.Scenario.duration_s) 0.
    (phases [])

let total_ticks = int_of_float (Float.round (total_s /. dt))

type kill = { kill_tick : int; staleness : int }

type cell = {
  index : int;
  seed : int64;
  variant : variant;
  workload : string;
  injections : Faults.injection list;
  kill : kill option;
}

let config_of_cell cell =
  let workload =
    match Benchmarks.by_name cell.workload with
    | Some w -> w
    | None ->
        invalid_arg
          (Printf.sprintf "Campaign.config_of_cell: unknown workload %S"
             cell.workload)
  in
  {
    (Spectr.Scenario.default_config ~seed:cell.seed workload) with
    Spectr.Scenario.phases = phases cell.injections;
  }

(* --- campaign generation ---------------------------------------------- *)

type spec = {
  campaign_seed : int;
  cells : int;
  variants : variant list;
  kinds : Faults.kind list;
  max_faults : int;
  kill_prob : float;
  reconfig_prob : float;
}

(* Transient kinds only — permanent faults enter a cell exclusively
   through the reconfiguration drill, so existing campaign digests stay
   byte-identical. *)
let all_kinds =
  [
    Faults.Dropout Power;
    Dropout Qos;
    Stuck_at_last Power;
    Stuck_at_last Qos;
    Spike_burst (Power, 8.);
    Spike_burst (Qos, 8.);
    Dvfs_stuck;
    Gating_refused;
    Heartbeat_stall;
  ]

let permanent_kinds =
  [
    Faults.Cluster_dead 1;
    Faults.Sensor_dead (Power_cluster 1);
    Faults.Dvfs_stuck_permanent;
  ]

let default_spec ?(seed = 1) ?(cells = 64) ?(variants = all_variants)
    ?(kinds = all_kinds) ?(max_faults = 3) ?(kill_prob = 0.25)
    ?(reconfig_prob = 0.) () =
  if cells < 1 then invalid_arg "Campaign.default_spec: cells < 1";
  if variants = [] then invalid_arg "Campaign.default_spec: no variants";
  if kinds = [] then invalid_arg "Campaign.default_spec: no fault kinds";
  if max_faults < 1 then invalid_arg "Campaign.default_spec: max_faults < 1";
  if not (kill_prob >= 0. && kill_prob <= 1.) then
    invalid_arg "Campaign.default_spec: kill_prob outside [0, 1]";
  if not (reconfig_prob >= 0. && reconfig_prob <= 1.) then
    invalid_arg "Campaign.default_spec: reconfig_prob outside [0, 1]";
  {
    campaign_seed = seed;
    cells;
    variants;
    kinds;
    max_faults;
    kill_prob;
    reconfig_prob;
  }

let cell_of_spec spec index =
  if index < 0 || index >= spec.cells then
    invalid_arg "Campaign.cell_of_spec: index outside the campaign";
  (* Cells are order-independent pure functions of (campaign seed,
     index), so any cell can be regenerated — and replayed — without
     generating the others. *)
  let g =
    Spectr_linalg.Prng.(create (mix_seed spec.campaign_seed index))
  in
  let seed = Spectr_linalg.Prng.int64 g in
  (* Round-robin over the variant list: every variant sees the same
     number of cells (±1), so soak statistics compare like with like. *)
  let variant = List.nth spec.variants (index mod List.length spec.variants) in
  let total = total_s in
  let n_faults = 1 + Spectr_linalg.Prng.int g spec.max_faults in
  let draw_kind () =
    match List.nth spec.kinds (Spectr_linalg.Prng.int g (List.length spec.kinds)) with
    | Faults.Spike_burst (s, hi) ->
        (* The listed magnitude is the upper bound of the draw. *)
        Faults.Spike_burst
          (s, Spectr_linalg.Prng.uniform g ~lo:1.5 ~hi:(Float.max 1.6 hi))
    | k -> k
  in
  let injections =
    List.init n_faults (fun _ ->
        let kind = draw_kind () in
        let start_s = Spectr_linalg.Prng.uniform g ~lo:0.5 ~hi:(total -. 1.0) in
        let duration = Spectr_linalg.Prng.uniform g ~lo:0.4 ~hi:4.0 in
        let stop_s = Float.min (start_s +. duration) total in
        Faults.injection kind ~start_s ~stop_s)
  in
  (* Reconfiguration drill: one permanent fault, latched early enough
     that detection (~3 s of persistence), re-synthesis and
     re-convergence all land inside the run.  The guard on
     [reconfig_prob > 0.] is load-bearing: it keeps the PRNG stream —
     and therefore every existing campaign digest — untouched unless a
     campaign opts into the drill. *)
  let injections =
    if
      spec.reconfig_prob > 0.
      && Spectr_linalg.Prng.float g < spec.reconfig_prob
    then begin
      let kind =
        List.nth permanent_kinds
          (Spectr_linalg.Prng.int g (List.length permanent_kinds))
      in
      let start_s =
        Spectr_linalg.Prng.uniform g ~lo:0.5
          ~hi:(Float.max 1.0 (total -. 8.))
      in
      injections @ [ Faults.permanent kind ~start_s ]
    end
    else injections
  in
  let kill =
    if Spectr_linalg.Prng.float g < spec.kill_prob then begin
      let kill_tick = 20 + Spectr_linalg.Prng.int g (total_ticks - 40) in
      (* Half the drills restore the checkpoint taken at the kill tick
         itself (exact resume, trace must stay byte-identical); the rest
         restore one taken up to a second earlier (bounded staleness —
         the restarted manager resynchronizes from fresh samples). *)
      let staleness =
        if Spectr_linalg.Prng.bool g then 0
        else Stdlib.min kill_tick (1 + Spectr_linalg.Prng.int g 20)
      in
      Some { kill_tick; staleness }
    end
    else None
  in
  { index; seed; variant; workload = "x264"; injections; kill }

let generate spec = List.init spec.cells (cell_of_spec spec)
