open Spectr_linalg
module Obs = Spectr_obs

(* Observability handles (no-ops while instrumentation is disabled). *)
let c_steps = Obs.Counters.counter "soc.steps"

type config = {
  seed : int64;
  power_noise : float;
  qos_noise : float;
  ips_noise : float;
  temp_noise : float;
  background_task_util : float;
  ambient_c : float;
  thermal_resistance : float;
  thermal_tau : float;
}

let default_config =
  {
    seed = 0x5EC7Ab1E5EC7AL;
    power_noise = 0.015;
    qos_noise = 0.02;
    ips_noise = 0.05;
    temp_noise = 0.01;
    background_task_util = 0.6;
    ambient_c = 30.;
    thermal_resistance = 8.;
    thermal_tau = 3.;
  }

(* [default_config]'s thermal triple IS exynos5422's, so on the default
   platform this is the identity and pre-description call sites that
   spliced [{ default_config with seed }] remain bit-identical. *)
let config_of desc =
  let th = Platform_desc.thermal desc in
  {
    default_config with
    ambient_c = th.Platform_desc.ambient_c;
    thermal_resistance = th.Platform_desc.resistance_c_per_w;
    thermal_tau = th.Platform_desc.tau_s;
  }

(* All-float and all-mutable: the record is flat, so [step_into] fills it
   with unboxed stores and a steady-state tick allocates nothing.  The
   per-cluster readings live in SoC-owned arrays ({!sensor_powers},
   {!ips_totals}) because adding an array field here would turn the
   record into a mixed block and box every float store. *)
type observation = {
  mutable time : float;
  mutable chip_power : float;
  mutable qos_rate : float;
  mutable temperature_c : float;
}

let make_observation () =
  { time = 0.; chip_power = 0.; qos_rate = 0.; temperature_c = 0. }

(* Hot mutable floats live in their own all-float record: a float store
   into a mixed record boxes the value, an all-float record is flat. *)
type hot = {
  mutable now : float;
  mutable temperature_c : float;
  mutable qos_ips : float; (* QoS throughput of the last [physics] call *)
}

type t = {
  config : config;
  platform : Platform_desc.t;
  qos : Workload.t;
  rng : Prng.t;
  hot : hot;
  (* Cluster geometry unpacked from the description so the kernel indexes
     flat arrays instead of chasing the description's records. *)
  k : int; (* cluster count *)
  host : int; (* index of the QoS-hosting cluster *)
  total : int; (* total core count *)
  offs : int array; (* k+1 core offsets, last = total *)
  n_cores : int array; (* cores per cluster *)
  opps : Opp.t array;
  pw : Power_model.params array;
  freqs : int array; (* current OPP per cluster *)
  volts : float array; (* cached OPP voltage per cluster *)
  active : int array; (* un-gated cores per cluster *)
  idle : float array; (* total entries *)
  mutable n_background : int;
  mutable faults : Faults.t option;
  mutable obs_active_faults : int;
      (* injections active at the previous step, for onset/clearance
         decisions; only maintained while observability is enabled *)
  (* CPI-law coefficients cached per cluster so the kernel never crosses
     a module boundary for a float result on the tick path. *)
  a : float array;
  b : float array;
  (* Workload phase table flattened to parallel arrays: [ph_end.(i)] is
     the cumulative end time of phase i (the last entry is never
     consulted — the final phase repeats; a workload without phases
     runs one endless phase at its nominal parallel fraction). *)
  ph_end : float array;
  ph_pf : float array;
  ph_ds : float array;
  (* Scratch for [physics] and the sensor draws: k cluster powers, qos,
     temp. *)
  sens : float array;
  (* Per-tick permanent-death mask; only written (and only read) when
     the schedule carries a [Cluster_dead] injection, so fault-free and
     transient-only runs never touch it. *)
  dead : bool array;
  (* Per-cluster kernel scratch. *)
  cap : float array; (* capacity after idle injection *)
  bg : float array; (* background placement, core-fractions *)
  rawtot : float array; (* noise-free per-cluster aggregate IPS *)
  (* Last-step per-cluster outputs exposed to managers and traces. *)
  pow_out : float array;
  ips_out : float array;
  (* Per-core PMU readings are skipped, not drawn, on the hot path (no
     scenario column consumes them): [raw_ips] holds the noise-free
     values, [ips_snap] the generator state just before the per-core
     draws, and {!per_core_ips} replays the exact draws on
     demand into [noisy_ips]. *)
  raw_ips : float array;
  noisy_ips : float array;
  ips_snap : Prng.t;
  scratch_rng : Prng.t;
  mutable ips_done : bool;
}

let create ?config ?(platform = Platform_desc.exynos5422) ~qos () =
  let config =
    match config with Some c -> c | None -> config_of platform
  in
  let k = Platform_desc.num_clusters platform in
  let total = Platform_desc.total_cores platform in
  let offs = Array.init (k + 1) (Platform_desc.core_offset platform) in
  let n_cores =
    Array.init k (fun i -> (Platform_desc.cluster platform i).Platform_desc.cores)
  in
  let opps =
    Array.init k (fun i -> (Platform_desc.cluster platform i).Platform_desc.opp)
  in
  let pw =
    Array.init k (fun i -> (Platform_desc.cluster platform i).Platform_desc.power)
  in
  let a = Array.make k 0. in
  let b = Array.make k 0. in
  for i = 0 to k - 1 do
    let ai, bi = Perf_model.coefficients_for qos platform i in
    a.(i) <- ai;
    b.(i) <- bi
  done;
  (* Boot at (the nearest OPP to) 1 GHz with every core un-gated — the
     mid-range default the pre-description SoC hard-coded. *)
  let freqs = Array.init k (fun i -> Opp.nearest opps.(i) 1000.) in
  let volts = Array.init k (fun i -> Opp.voltage opps.(i) freqs.(i)) in
  (* Flatten the phase list: cumulative phase ends, summed left to right
     over the durations. *)
  let ph_end, ph_pf, ph_ds =
    match qos.Workload.phases with
    | [] ->
        ( [| infinity |],
          [| qos.Workload.parallel_fraction |],
          [| 1. |] )
    | phases ->
        let n = List.length phases in
        let ends = Array.make n 0. in
        let pfs = Array.make n 0. in
        let dss = Array.make n 0. in
        let elapsed = ref 0. in
        List.iteri
          (fun i (ph : Workload.phase) ->
            elapsed := !elapsed +. ph.Workload.duration_s;
            ends.(i) <- !elapsed;
            pfs.(i) <- ph.Workload.parallel_fraction;
            dss.(i) <- ph.Workload.demand_scale)
          phases;
        (ends, pfs, dss)
  in
  {
    config;
    platform;
    qos;
    rng = Prng.create config.seed;
    hot = { now = 0.; temperature_c = config.ambient_c; qos_ips = 0. };
    k;
    host = Platform_desc.host platform;
    total;
    offs;
    n_cores;
    opps;
    pw;
    freqs;
    volts;
    active = Array.copy n_cores;
    idle = Array.make total 0.;
    n_background = 0;
    faults = None;
    obs_active_faults = 0;
    a;
    b;
    ph_end;
    ph_pf;
    ph_ds;
    sens = Array.make (k + 2) 0.;
    dead = Array.make k false;
    cap = Array.make k 0.;
    bg = Array.make k 0.;
    rawtot = Array.make k 0.;
    pow_out = Array.make k 0.;
    ips_out = Array.make k 0.;
    raw_ips = Array.make total 0.;
    noisy_ips = Array.make total 0.;
    ips_snap = Prng.create config.seed;
    scratch_rng = Prng.create config.seed;
    ips_done = true;
  }

let platform soc = soc.platform
let num_clusters soc = soc.k
let host_cluster soc = soc.host

let[@inline] check_cluster_pub soc i name =
  if i < 0 || i >= soc.k then
    invalid_arg (Printf.sprintf "Soc.%s: cluster %d not in 0..%d" name i
                   (soc.k - 1))

let opp_table soc i =
  check_cluster_pub soc i "opp_table";
  soc.opps.(i)

let cluster_cores soc i =
  check_cluster_pub soc i "cluster_cores";
  soc.n_cores.(i)
let set_faults soc faults = soc.faults <- faults
let faults soc = soc.faults

let fault_active soc pred =
  match soc.faults with None -> false | Some f -> pred f ~now:soc.hot.now

(* Is cluster [i] permanently dead right now?  The actuators consult
   this; [physics] keeps its own per-tick mask so the fault-free path
   stays allocation-free. *)
let cluster_dead_now soc i =
  match soc.faults with
  | None -> false
  | Some f ->
      Faults.has_permanent f && Faults.cluster_dead f ~now:soc.hot.now ~cluster:i

let check_cluster soc i =
  if i < 0 || i >= soc.k then invalid_arg "Soc: cluster index out of range"

let frequency soc i =
  check_cluster soc i;
  soc.freqs.(i)

let set_frequency soc i f_mhz =
  check_cluster soc i;
  if fault_active soc Faults.dvfs_stuck || cluster_dead_now soc i then
    soc.freqs.(i)
  else begin
    let f = Opp.nearest soc.opps.(i) f_mhz in
    if f <> soc.freqs.(i) then begin
      soc.freqs.(i) <- f;
      soc.volts.(i) <- Opp.voltage soc.opps.(i) f
    end;
    f
  end

let set_active_cores soc i n =
  check_cluster soc i;
  if
    not (fault_active soc Faults.gating_refused || cluster_dead_now soc i)
  then soc.active.(i) <- max 1 (min soc.n_cores.(i) n)

let active_cores soc i =
  check_cluster soc i;
  soc.active.(i)

let set_idle_fraction soc ~core f =
  if core < 0 || core >= soc.total then invalid_arg "Soc.set_idle_fraction: core";
  soc.idle.(core) <- Float.max 0. (Float.min 0.9 f)

let idle_fraction soc ~core =
  if core < 0 || core >= soc.total then invalid_arg "Soc.idle_fraction: core";
  soc.idle.(core)

let set_background_tasks soc n =
  if n < 0 then invalid_arg "Soc.set_background_tasks: negative";
  soc.n_background <- n

let background_tasks soc = soc.n_background
let time soc = soc.hot.now
let temperature soc = soc.hot.temperature_c
let sensor_powers soc = soc.pow_out
let ips_totals soc = soc.ips_out

(* --- physics ------------------------------------------------------------ *)

(* HMP placement of background work: the scheduler fills the non-host
   clusters in index order, then spills onto the host where the spilled
   tasks time-share with the QoS application's threads CFS-style
   (proportional to runnable demand). *)
let qos_threads = 4.

(* The noise-free plant at the current time and actuator settings,
   written once over unboxed locals and flat per-cluster arrays: the
   permanent-death mask, the workload phase, capacity after idle
   injection ([cap]), HMP background placement ([bg]), the QoS
   application's throughput ([hot.qos_ips]), the true heartbeat rate
   ([dst.(k)]) and the per-cluster powers ([dst.(0 .. k-1)]).  It draws
   no noise and moves neither the clock nor the die temperature, so the
   ground-truth accessors call it between steps and {!step_into} calls
   it once per tick.  Cross-module
   calls here either return unit/int or are replaced by cached state
   ([a]/[b], [volts], [ph_*]): without the optimizing native backend a
   cross-module float return boxes ~16 B per call. *)
let physics soc dst =
  let now = soc.hot.now in
  let k = soc.k in
  let host = soc.host in
  (* Permanent-death mask.  Transient-only (and fault-free) schedules
     take the [false] constant without touching the mask.  A dead
     cluster has zero capacity (so the background scheduler routes
     around it), draws zero power (no dynamic, leak, gated or uncore
     terms — the rail is off), and executes nothing; its sensor channels
     read exact 0.0, which multiplicative noise maps to 0.0 while
     advancing the PRNG stream exactly as a live reading would. *)
  let any_dead =
    match soc.faults with
    | Some f when Faults.has_permanent f ->
        let dead = soc.dead in
        let any = ref false in
        for i = 0 to k - 1 do
          let d = Faults.cluster_dead f ~now ~cluster:i in
          dead.(i) <- d;
          if d then any := true
        done;
        !any
    | _ -> false
  in
  (* Workload phase: the first whose cumulative end lies ahead; the
     final phase repeats. *)
  let np = Array.length soc.ph_end in
  let pi = ref 0 in
  while !pi < np - 1 && not (now < soc.ph_end.(!pi)) do
    incr pi
  done;
  let ph_pf = soc.ph_pf.(!pi) in
  let ph_ds = soc.ph_ds.(!pi) in
  (* Capacity (in core-fractions) of each cluster's active cores after
     idle-cycle injection; cluster i owns cores [offs.(i), offs.(i+1)). *)
  let cap = soc.cap in
  for i = 0 to k - 1 do
    if any_dead && soc.dead.(i) then cap.(i) <- 0.
    else begin
      let o = soc.offs.(i) in
      let s = ref 0. in
      for j = 0 to soc.active.(i) - 1 do
        s := !s +. (1. -. soc.idle.(o + j))
      done;
      cap.(i) <- !s
    end
  done;
  (* HMP background placement, in core-fractions per cluster. *)
  let bg = soc.bg in
  let demand =
    float_of_int soc.n_background *. soc.config.background_task_util
  in
  let remaining = ref demand in
  for i = 0 to k - 1 do
    if i <> host then begin
      let used = Float.min !remaining cap.(i) in
      bg.(i) <- used;
      remaining := !remaining -. used
    end
  done;
  let spill = !remaining in
  bg.(host) <-
    (if spill <= 0. then 0.
     else begin
       (* Fair sharing on the host cluster: the QoS app's threads and the
          spilled background demand split capacity proportionally. *)
       let share = cap.(host) *. spill /. (qos_threads +. spill) in
       Float.min spill share
     end);
  (* QoS application throughput on its effective host cores: the CPI
     law under memory contention times Amdahl's speedup. *)
  let qos_eff = Float.max 0.1 (cap.(host) -. bg.(host)) in
  let f_host_ghz = float_of_int soc.freqs.(host) /. 1000. in
  let kappa_eff =
    1. +. (Perf_model.contention *. Float.max 0. (qos_eff -. 1.))
  in
  let core_ips_host =
    f_host_ghz *. 1e9
    /. (soc.a.(host) +. (soc.b.(host) *. kappa_eff *. f_host_ghz))
  in
  let amdahl = 1. /. (1. -. ph_pf +. (ph_pf /. qos_eff)) in
  let qos_ips =
    if any_dead && soc.dead.(host) then 0. else core_ips_host *. amdahl
  in
  soc.hot.qos_ips <- qos_ips;
  (* True heartbeat rate under the slow sinusoidal scene-complexity
     variation. *)
  let complexity =
    (* With no wobble the sine is multiplied by zero: 1. +. (0. *. s)
       is exactly 1. for any finite s, so the transcendental is free to
       skip. *)
    let wobble = soc.qos.Workload.complexity_wobble in
    if wobble = 0. then 1.
    else 1. +. (wobble *. sin (2. *. Float.pi *. now /. 8.))
  in
  dst.(k) <-
    qos_ips
    /. (soc.qos.Workload.instructions_per_heartbeat *. ph_ds *. complexity);
  (* Cluster powers ([Power_model]'s law over the cached OPP voltages).
     The QoS application saturates whatever host capacity it is given;
     background work saturates its placed share; non-host clusters run
     only background work. *)
  for i = 0 to k - 1 do
    if any_dead && soc.dead.(i) then dst.(i) <- 0.
    else begin
      let util =
        if i = host then
          if soc.active.(i) = 0 then 0.
          else Float.min 1. (cap.(i) /. float_of_int soc.active.(i))
        else if soc.active.(i) = 0 then 0.
        else Float.min 1. (bg.(i) /. float_of_int soc.active.(i))
      in
      let p = soc.pw.(i) in
      let v = soc.volts.(i) in
      let f_ghz = float_of_int soc.freqs.(i) /. 1000. in
      let dynamic = p.Power_model.cdyn_w_per_v2ghz *. v *. v *. f_ghz *. util in
      let leak =
        p.Power_model.leak_w_per_core *. (v /. Power_model.v0) *. (v /. Power_model.v0)
      in
      dst.(i) <-
        (float_of_int soc.active.(i) *. (dynamic +. leak))
        +. (float_of_int (soc.n_cores.(i) - soc.active.(i))
           *. p.Power_model.gated_w_per_core)
        +. p.Power_model.uncore_w
    end
  done

let ground_truth soc dst =
  physics soc soc.sens;
  let p = ref soc.sens.(0) in
  for i = 1 to soc.k - 1 do
    p := !p +. soc.sens.(i)
  done;
  dst.(0) <- !p;
  dst.(1) <- soc.sens.(soc.k)

(* --- tick kernel ------------------------------------------------------ *)

(* Bound on |z| of a Box–Muller sample: u1 >= 2^-53, so
   |z| <= sqrt(2·53·ln 2) < 8.572.  When sigma·8.572 < 1 a zero raw
   reading stays exactly +0.0 after multiplicative noise (1 + g > 0), so
   the draw need not be materialized to know its result. *)
let z_bound = 8.572

(* One tick: [physics] at the advanced time, the thermal RC, then the
   sensor model over unboxed locals and flat per-cluster arrays.  On
   [Platform_desc.exynos5422] the cluster loops unroll to the exact
   float-op sequence — and the exact PRNG draw order — of the
   pre-description 2-cluster kernel, so the scenario CSV digests pin it. *)
let step_into soc ~dt obs =
  if dt <= 0. then invalid_arg "Soc.step: dt <= 0";
  let c = soc.config in
  let hot = soc.hot in
  hot.now <- hot.now +. dt;
  if Obs.enabled () then begin
    (* One simulated controller period advances the deterministic obs
       clock by one tick; this never feeds back into the physics. *)
    Obs.Clock.tick ();
    Obs.Counters.incr c_steps;
    match soc.faults with
    | None -> ()
    | Some f ->
        let active = Faults.active_count f ~now:hot.now in
        if active > 0 && soc.obs_active_faults = 0 then
          Obs.Decision_log.record (Obs.Decision_log.Fault { active; onset = true })
        else if active = 0 && soc.obs_active_faults > 0 then
          Obs.Decision_log.record
            (Obs.Decision_log.Fault { active = 0; onset = false });
        soc.obs_active_faults <- active
  end;
  let k = soc.k in
  let host = soc.host in
  (* Noise-free cluster powers and heartbeat rate, staged in [sens] for
     the noise draws. *)
  let sens = soc.sens in
  physics soc sens;
  let cap = soc.cap in
  let bg = soc.bg in
  let qos_ips = hot.qos_ips in
  let f_host_ghz = float_of_int soc.freqs.(host) /. 1000. in
  (* First-order thermal RC: the die relaxes toward ambient + R_th * P
     with time constant tau. *)
  let p_total = ref sens.(0) in
  for i = 1 to k - 1 do
    p_total := !p_total +. sens.(i)
  done;
  let t_target = c.ambient_c +. (c.thermal_resistance *. !p_total) in
  let alpha = Float.min 1. (dt /. c.thermal_tau) in
  hot.temperature_c <- hot.temperature_c +. (alpha *. (t_target -. hot.temperature_c));
  (* Sensor noise, drawn in the fixed stream order cluster powers (index
     order), qos, per-core IPS (core order), temperature.  Values
     round-trip through [sens] (unboxed float-array traffic) so the
     unit-returning [Prng.noisy_into] can write them. *)
  Prng.noisy_into soc.rng ~sigma:c.power_noise ~dst:sens ~pos:0 ~len:k;
  Prng.noisy_into soc.rng ~sigma:c.qos_noise ~dst:sens ~pos:k ~len:1;
  (* Noise-free per-core IPS: cluster throughput spread over active
     cores proportionally to their non-idled capacity; background work
     on the host runs at the core's native (contended) rate. *)
  let raw = soc.raw_ips in
  Array.fill raw 0 soc.total 0.;
  let kappa_host_cap =
    1. +. (Perf_model.contention *. Float.max 0. (cap.(host) -. 1.))
  in
  let bg_host_ips =
    bg.(host)
    *. (f_host_ghz *. 1e9
       /. (soc.a.(host) +. (soc.b.(host) *. kappa_host_cap *. f_host_ghz)))
  in
  let oh = soc.offs.(host) in
  for j = 0 to soc.active.(host) - 1 do
    let share =
      if cap.(host) > 0. then (1. -. soc.idle.(oh + j)) /. cap.(host) else 0.
    in
    raw.(oh + j) <- share *. (qos_ips +. bg_host_ips)
  done;
  let rawtot = soc.rawtot in
  for i = 0 to k - 1 do
    if i <> host then begin
      let busy = Float.max 1. bg.(i) in
      let kappa =
        1. +. (Perf_model.contention *. Float.max 0. (busy -. 1.))
      in
      let f_ghz = float_of_int soc.freqs.(i) /. 1000. in
      let total_i =
        bg.(i)
        *. (f_ghz *. 1e9 /. (soc.a.(i) +. (soc.b.(i) *. kappa *. f_ghz)))
      in
      rawtot.(i) <- total_i;
      let o = soc.offs.(i) in
      for j = 0 to soc.active.(i) - 1 do
        let share =
          if cap.(i) > 0. then (1. -. soc.idle.(o + j)) /. cap.(i) else 0.
        in
        raw.(o + j) <- share *. total_i
      done
    end
    else rawtot.(i) <- 0.
  done;
  (* The host cluster's per-core draws advance the stream without being
     materialized; {!per_core_ips} replays them from
     [ips_snap] if a caller asks.  Each non-host aggregate IS consumed
     every tick, so those draws happen for real (a materialized gaussian
     advances the state exactly as a skipped one) — unless every
     non-host raw total is exactly zero, where the sigma bound proves
     the noisy readings are zero too and all draws can be skipped. *)
  Prng.blit ~src:soc.rng ~dst:soc.ips_snap;
  soc.ips_done <- false;
  let sigma_ips = c.ips_noise in
  let ips_out = soc.ips_out in
  if sigma_ips <= 0. then
    for i = 0 to k - 1 do
      if i = host then ips_out.(i) <- 0.
      else begin
        let o = soc.offs.(i) in
        let s = ref raw.(o) in
        for j = 1 to soc.n_cores.(i) - 1 do
          s := !s +. raw.(o + j)
        done;
        ips_out.(i) <- !s
      end
    done
  else begin
    let all_zero = ref true in
    for i = 0 to k - 1 do
      if i <> host && not (rawtot.(i) = 0.) then all_zero := false
    done;
    if !all_zero && sigma_ips *. z_bound < 1. then begin
      for _ = 1 to soc.total do
        Prng.skip_gaussian soc.rng
      done;
      for i = 0 to k - 1 do
        ips_out.(i) <- 0.
      done
    end
    else
      for i = 0 to k - 1 do
        if i = host then begin
          for _ = 1 to soc.n_cores.(i) do
            Prng.skip_gaussian soc.rng
          done;
          ips_out.(i) <- 0.
        end
        else begin
          let o = soc.offs.(i) in
          let n = soc.n_cores.(i) in
          let nz = soc.noisy_ips in
          for j = 0 to n - 1 do
            nz.(o + j) <- raw.(o + j)
          done;
          Prng.noisy_into soc.rng ~sigma:sigma_ips ~dst:nz ~pos:o ~len:n;
          let s = ref nz.(o) in
          for j = 1 to n - 1 do
            s := !s +. nz.(o + j)
          done;
          ips_out.(i) <- !s
        end
      done
  end;
  (* Temperature sensor: last draw of the tick. *)
  sens.(k + 1) <- hot.temperature_c;
  Prng.noisy_into soc.rng ~sigma:c.temp_noise ~dst:sens ~pos:(k + 1) ~len:1;
  (* Sensor faults corrupt the readings only after every draw from the
     SoC's own noise stream, so an inactive (or absent) schedule leaves
     the no-fault trace bit-identical.  Power channels apply in
     descending cluster index, preserving the pre-description order
     (little, then big) on exynos5422. *)
  (match soc.faults with
  | None -> ()
  | Some f ->
      let now = hot.now in
      sens.(k) <- Faults.apply_qos f ~now sens.(k);
      for i = k - 1 downto 0 do
        sens.(i) <- Faults.apply_power f ~now ~cluster:i sens.(i)
      done;
      sens.(k + 1) <- Faults.apply_temp f ~now sens.(k + 1));
  obs.time <- hot.now;
  let pow_out = soc.pow_out in
  pow_out.(0) <- sens.(0);
  let chip = ref sens.(0) in
  for i = 1 to k - 1 do
    pow_out.(i) <- sens.(i);
    chip := !chip +. sens.(i)
  done;
  obs.chip_power <- !chip;
  obs.qos_rate <- sens.(k);
  obs.temperature_c <- sens.(k + 1)

let step soc ~dt =
  let obs = make_observation () in
  step_into soc ~dt obs;
  obs

(* --- deferred per-core readings --------------------------------------- *)

let materialize_ips soc =
  if not soc.ips_done then begin
    let nz = soc.noisy_ips in
    Array.blit soc.raw_ips 0 nz 0 soc.total;
    if soc.config.ips_noise > 0. then begin
      Prng.blit ~src:soc.ips_snap ~dst:soc.scratch_rng;
      Prng.noisy_into soc.scratch_rng ~sigma:soc.config.ips_noise ~dst:nz
        ~pos:0 ~len:soc.total
    end;
    soc.ips_done <- true
  end

let per_core_ips soc =
  materialize_ips soc;
  Array.copy soc.noisy_ips
