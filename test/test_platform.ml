(* Tests for the Exynos-class HMP simulator: Opp, Workload, Benchmarks,
   Perf_model, Power_model, Soc, Heartbeats, Trace.

   Several tests pin the calibration targets taken from the paper:
   max-vs-min allocation speedups between 3.2x and 4.5x for the PARSEC
   set, x264 ceiling near 80 FPS, chip power within the 1.5-6 W band of
   Figure 13. *)

open Spectr_platform

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* Ground truth as {!Soc.ground_truth} writes it: chip power, QoS rate. *)
let truth soc =
  let dst = Array.make 2 0. in
  Soc.ground_truth soc dst;
  dst

let true_chip_power soc = (truth soc).(0)
let true_qos_rate soc = (truth soc).(1)

(* ------------------------------------------------------------------ *)
(* Opp                                                                 *)
(* ------------------------------------------------------------------ *)

let test_opp_tables () =
  check_int "big min" 200 (Opp.min_freq Opp.big);
  check_int "big max" 2000 (Opp.max_freq Opp.big);
  check_int "little max" 1400 (Opp.max_freq Opp.little);
  check_int "big points" 19 (Opp.num_points Opp.big);
  check_int "little points" 13 (Opp.num_points Opp.little)

let test_opp_nearest () =
  check_int "round down" 1200 (Opp.nearest Opp.big 1240.);
  check_int "round up" 1300 (Opp.nearest Opp.big 1260.);
  check_int "clamp low" 200 (Opp.nearest Opp.big (-50.));
  check_int "clamp high" 2000 (Opp.nearest Opp.big 9999.)

(* [nearest] on unevenly spaced tables: midpoint ties resolve downward,
   single-entry tables absorb everything, and out-of-range queries
   clamp — and it agrees with a reference O(n) scan everywhere,
   including the O(1) fast path on a uniform table. *)
let nearest_scan (t : Opp.t) f_mhz =
  Array.fold_left
    (fun best f ->
      if abs_float (float_of_int f -. f_mhz) < abs_float (float_of_int best -. f_mhz)
      then f
      else best)
    t.Opp.freqs_mhz.(0) t.Opp.freqs_mhz

let test_opp_nearest_scan () =
  let bumpy =
    Opp.create ~name:"bumpy"
      ~points:[ (200, 0.9); (600, 0.95); (700, 1.0); (1500, 1.1) ]
  in
  check_int "non-uniform detected" 0 bumpy.Opp.uniform_step_mhz;
  check_int "midpoint tie resolves down" 200 (Opp.nearest bumpy 400.);
  check_int "midpoint tie resolves down (narrow)" 600 (Opp.nearest bumpy 650.);
  check_int "just above midpoint" 600 (Opp.nearest bumpy 401.);
  check_int "just below midpoint" 200 (Opp.nearest bumpy 399.);
  check_int "wide gap rounds up" 1500 (Opp.nearest bumpy 1101.);
  check_int "clamp low" 200 (Opp.nearest bumpy (-300.));
  check_int "clamp high" 1500 (Opp.nearest bumpy 1.e7);
  check_int "scan agrees" (nearest_scan bumpy 650.) (Opp.nearest bumpy 650.);
  let single = Opp.create ~name:"single" ~points:[ (800, 1.0) ] in
  check_int "single below" 800 (Opp.nearest single 0.);
  check_int "single above" 800 (Opp.nearest single 5000.);
  check_int "single exact" 800 (Opp.nearest single 800.);
  check_int "single scan" 800 (nearest_scan single 123.);
  (* Every half-step query on the uniform Big table: scan = fast path. *)
  for f10 = 0 to 250 do
    let f = float_of_int f10 *. 10. -. 100. in
    check_int
      (Printf.sprintf "scan/fast agree at %.0f" f)
      (nearest_scan Opp.big f) (Opp.nearest Opp.big f)
  done

let test_opp_voltage_monotone () =
  let prev = ref 0. in
  Array.iter
    (fun f ->
      let v = Opp.voltage Opp.big f in
      check_bool "voltage ascends" true (v > !prev);
      prev := v)
    (Array.of_list
       (List.init (Opp.num_points Opp.big) (fun i -> 200 + (i * 100))))

let test_opp_voltage_unknown () =
  Alcotest.check_raises "not an OPP"
    (Invalid_argument "Opp.index: 1250 MHz not an OPP of big-a15") (fun () ->
      ignore (Opp.voltage Opp.big 1250))

let test_opp_create_validation () =
  Alcotest.check_raises "descending"
    (Invalid_argument "Opp.create: frequencies must ascend") (fun () ->
      ignore (Opp.create ~name:"bad" ~points:[ (500, 1.0); (400, 0.9) ]))

(* ------------------------------------------------------------------ *)
(* Workload                                                            *)
(* ------------------------------------------------------------------ *)

let test_workload_validation () =
  Alcotest.check_raises "parallel fraction"
    (Invalid_argument "Workload.create: parallel_fraction not in [0,1]")
    (fun () ->
      ignore
        (Workload.create ~name:"w" ~parallel_fraction:1.5 ~freq_scaling:2.
           ~base_ipc_big:1. ~instructions_per_heartbeat:1e7 ()))

(* The SoC's flattened phase table is the one phase lookup: canneal's
   serialized input phase runs first, its parallel phase repeats forever,
   and a workload without phases behaves exactly like one endless phase
   at its nominal parallel fraction and unit demand. *)
let test_workload_phases () =
  let w = Benchmarks.canneal in
  match w.Workload.phases with
  | first :: (_ :: _ as rest) ->
      let last = List.nth rest (List.length rest - 1) in
      check_bool "serial phase first" true
        (first.Workload.parallel_fraction < 0.5);
      check_bool "parallel later" true (last.Workload.parallel_fraction >= 0.5);
      (* Past every boundary the final phase repeats: the rate equals a
         single-phase twin running only that phase. *)
      let twin =
        Workload.create ~name:"canneal-tail" ~phases:[ last ]
          ~complexity_wobble:w.Workload.complexity_wobble
          ~parallel_fraction:w.Workload.parallel_fraction
          ~freq_scaling:w.Workload.freq_scaling
          ~base_ipc_big:w.Workload.base_ipc_big
          ~instructions_per_heartbeat:w.Workload.instructions_per_heartbeat ()
      in
      let rate_at qos t =
        let soc = Soc.create ~qos () in
        while Soc.time soc < t do
          ignore (Soc.step soc ~dt:1.)
        done;
        true_qos_rate soc
      in
      check_bool "serial phase slows the start" true
        (rate_at w 1. < rate_at twin 1.);
      check_bool "final phase repeats" true
        (Int64.bits_of_float (rate_at w 1000.)
        = Int64.bits_of_float (rate_at twin 1000.))
  | _ -> Alcotest.fail "canneal has a serial and a parallel phase"

let test_workload_phase_default () =
  let w = Benchmarks.x264 in
  check_bool "x264 has no phases" true (w.Workload.phases = []);
  let one_phase =
    Workload.create ~name:"x264-one-phase"
      ~complexity_wobble:w.Workload.complexity_wobble
      ~phases:
        [
          {
            Workload.duration_s = 1.;
            parallel_fraction = w.Workload.parallel_fraction;
            demand_scale = 1.;
          };
        ]
      ~parallel_fraction:w.Workload.parallel_fraction
      ~freq_scaling:w.Workload.freq_scaling ~base_ipc_big:w.Workload.base_ipc_big
      ~instructions_per_heartbeat:w.Workload.instructions_per_heartbeat ()
  in
  let a = Soc.create ~qos:w () and b = Soc.create ~qos:one_phase () in
  for _ = 1 to 20 do
    ignore (Soc.step a ~dt:0.25);
    ignore (Soc.step b ~dt:0.25);
    check_bool "default phase = nominal p, unit demand" true
      (Int64.bits_of_float (true_qos_rate a)
      = Int64.bits_of_float (true_qos_rate b))
  done

let test_amdahl () =
  check_float "p=1 linear" 4.
    (Workload.amdahl_speedup ~parallel_fraction:1. ~cores:4.);
  check_float "p=0 flat" 1.
    (Workload.amdahl_speedup ~parallel_fraction:0. ~cores:4.);
  check_bool "fractional cores" true
    (Workload.amdahl_speedup ~parallel_fraction:0.9 ~cores:2.5 > 1.);
  Alcotest.check_raises "zero cores"
    (Invalid_argument "Workload.amdahl_speedup: cores <= 0") (fun () ->
      ignore (Workload.amdahl_speedup ~parallel_fraction:0.5 ~cores:0.))

(* ------------------------------------------------------------------ *)
(* Benchmarks: paper calibration targets                               *)
(* ------------------------------------------------------------------ *)

let test_speedup_range_parsec () =
  (* §5: "Speedups from 3.2X (streamcluster) to 4.5X (x264)". *)
  let ratio w =
    Perf_model.max_qos_rate_for Platform_desc.exynos5422 w
    /. Perf_model.min_qos_rate_for Platform_desc.exynos5422 w
  in
  check_bool "streamcluster ~3.2x" true
    (abs_float (ratio Benchmarks.streamcluster -. 3.2) < 0.15);
  check_bool "x264 ~4.5x" true (abs_float (ratio Benchmarks.x264 -. 4.5) < 0.15);
  List.iter
    (fun w ->
      let r = ratio w in
      check_bool (w.Workload.name ^ " speedup sane") true (r > 2. && r < 7.))
    Benchmarks.all_qos

let test_x264_fps_ceiling () =
  let max_fps =
    Perf_model.max_qos_rate_for Platform_desc.exynos5422 Benchmarks.x264
  in
  check_bool "~80 FPS at full allocation" true
    (max_fps > 75. && max_fps < 85.)

(* Every workload's top rate on the reference board, as exact hex
   floats: the CPI law, the contention factor and Amdahl's law compose to
   these bits. *)
let test_max_qos_rate_pins () =
  List.iter
    (fun (name, expected) ->
      let w =
        match Benchmarks.by_name name with
        | Some w -> w
        | None -> Alcotest.failf "unknown workload %s" name
      in
      Alcotest.(check string)
        (name ^ " max rate")
        (Printf.sprintf "%h" expected)
        (Printf.sprintf "%h"
           (Perf_model.max_qos_rate_for Platform_desc.exynos5422 w)))
    [
      ("microbench", 0x1.0f4de9bd37a6fp+7);
      ("bodytrack", 0x1.f78e38e38e39p+5);
      ("canneal", 0x1.dd63a7aed804ep+5);
      ("kmeans", 0x1.0189c031169a2p+6);
      ("knn", 0x1.f5475da068c1cp+5);
      ("lesq", 0x1.d7a7c3a0cc55fp+5);
      ("lr", 0x1.d73de8933de87p+5);
      ("streamcluster", 0x1.05a9b63a428b9p+6);
      ("x264", 0x1.3fb861f6582ddp+6);
    ]

let test_benchmark_lookup () =
  check_bool "x264 found" true (Benchmarks.by_name "x264" <> None);
  check_bool "microbench found" true (Benchmarks.by_name "microbench" <> None);
  check_bool "unknown" true (Benchmarks.by_name "doom" = None);
  check_int "eight QoS apps" 8 (List.length Benchmarks.all_qos)

(* ------------------------------------------------------------------ *)
(* Perf_model                                                          *)
(* ------------------------------------------------------------------ *)

(* Per-core IPS of exynos5422 cluster [i] (0 = Big, 1 = Little) under
   the description-driven CPI law, with [busy_cores] cores competing for
   memory bandwidth. *)
let core_ips ?(busy_cores = 4.) w i ~freq_mhz =
  let a, b = Perf_model.coefficients_for w Platform_desc.exynos5422 i in
  let f_ghz = float_of_int freq_mhz /. 1000. in
  f_ghz *. 1e9
  /. (a +. (b *. Perf_model.contention_factor ~busy_cores *. f_ghz))

let test_perf_monotone_in_frequency () =
  let w = Benchmarks.x264 in
  let prev = ref 0. in
  List.iter
    (fun f ->
      let ips = core_ips w 0 ~freq_mhz:f in
      check_bool "IPS increases with f" true (ips > !prev);
      prev := ips)
    [ 200; 600; 1000; 1400; 2000 ]

let test_perf_memory_bound_saturates () =
  (* streamcluster (freq_scaling 1.5) must gain less from frequency than
     the microbenchmark (freq_scaling 2.8). *)
  let gain w =
    core_ips w 0 ~freq_mhz:2000
    /. core_ips w 0 ~freq_mhz:200
  in
  check_bool "memory-bound flatter" true
    (gain Benchmarks.streamcluster < gain Benchmarks.microbench)

let test_perf_little_slower () =
  let w = Benchmarks.x264 in
  let big = core_ips w 0 ~freq_mhz:1000 in
  let little = core_ips w 1 ~freq_mhz:1000 in
  check_bool "little < big at same f" true (little < big);
  (* The shared memory-stall term compresses the in-order/out-of-order gap
     at equal frequency, so the ratio sits well above little_ipc_ratio. *)
  check_bool "ratio sensible" true (little /. big > 0.3 && little /. big < 0.9)

let test_perf_freq_scaling_exact () =
  (* The CPI law must reproduce the declared freq_scaling exactly. *)
  List.iter
    (fun w ->
      let r =
        core_ips w 0 ~freq_mhz:2000
        /. core_ips w 0 ~freq_mhz:200
      in
      check_bool
        (w.Workload.name ^ " freq scaling")
        true
        (abs_float (r -. w.Workload.freq_scaling) < 1e-9))
    Benchmarks.all_qos

let test_perf_ipc_reference () =
  (* IPS at 1 GHz = base_ipc * 1e9. *)
  let w = Benchmarks.x264 in
  check_bool "IPC at 1GHz" true
    (abs_float
       ((core_ips w 0 ~freq_mhz:1000 /. 1e9)
       -. w.Workload.base_ipc_big)
    < 1e-6)

(* ------------------------------------------------------------------ *)
(* Power_model                                                         *)
(* ------------------------------------------------------------------ *)

let test_power_full_tilt () =
  let p =
    Power_model.cluster_power Power_model.big_params ~table:Opp.big
      ~freq_mhz:2000 ~active_cores:4 ~total_cores:4 ~utilization:1.
  in
  (* Big cluster alone ~5.4 W at the top OPP. *)
  check_bool "big peak ~5.4W" true (p > 4.8 && p < 6.0)

let test_power_monotone () =
  let power f =
    Power_model.cluster_power Power_model.big_params ~table:Opp.big ~freq_mhz:f
      ~active_cores:4 ~total_cores:4 ~utilization:1.
  in
  check_bool "2GHz > 1GHz" true (power 2000 > power 1000);
  check_bool "1GHz > 200MHz" true (power 1000 > power 200)

let test_power_core_gating () =
  let power n =
    Power_model.cluster_power Power_model.big_params ~table:Opp.big
      ~freq_mhz:1500 ~active_cores:n ~total_cores:4 ~utilization:1.
  in
  check_bool "fewer cores less power" true (power 1 < power 4);
  check_bool "gating saves a lot" true (power 4 -. power 1 > 1.)

let test_power_utilization () =
  let power u =
    Power_model.cluster_power Power_model.big_params ~table:Opp.big
      ~freq_mhz:1500 ~active_cores:4 ~total_cores:4 ~utilization:u
  in
  check_bool "idle cheaper" true (power 0. < power 1.);
  Alcotest.check_raises "bad util"
    (Invalid_argument "Power_model.cluster_power: utilization out of range")
    (fun () -> ignore (power 1.5))

let test_power_little_cheap () =
  let big =
    Power_model.cluster_power Power_model.big_params ~table:Opp.big
      ~freq_mhz:1400 ~active_cores:4 ~total_cores:4 ~utilization:1.
  in
  let little =
    Power_model.cluster_power Power_model.little_params ~table:Opp.little
      ~freq_mhz:1400 ~active_cores:4 ~total_cores:4 ~utilization:1.
  in
  check_bool "little ~5x cheaper" true (little *. 3. < big)

(* ------------------------------------------------------------------ *)
(* Soc                                                                 *)
(* ------------------------------------------------------------------ *)

let fresh_soc ?config () = Soc.create ?config ~qos:Benchmarks.x264 ()

let test_soc_actuators () =
  let soc = fresh_soc () in
  let f = Soc.set_frequency soc 0 1234. in
  check_int "quantized" 1200 f;
  check_int "readback" 1200 (Soc.frequency soc 0);
  Soc.set_active_cores soc 0 0;
  check_int "clamped to 1" 1 (Soc.active_cores soc 0);
  Soc.set_active_cores soc 0 9;
  check_int "clamped to 4" 4 (Soc.active_cores soc 0)

let test_soc_idle_insertion () =
  let soc = fresh_soc () in
  Soc.set_idle_fraction soc ~core:0 2.0;
  check_float "clamped to 0.9" 0.9 (Soc.idle_fraction soc ~core:0);
  let rate_full = true_qos_rate soc in
  ignore rate_full;
  Alcotest.check_raises "bad core" (Invalid_argument "Soc.set_idle_fraction: core")
    (fun () -> Soc.set_idle_fraction soc ~core:8 0.1)

let test_soc_idle_reduces_qos () =
  let soc = fresh_soc () in
  let before = true_qos_rate soc in
  for i = 0 to 3 do
    Soc.set_idle_fraction soc ~core:i 0.5
  done;
  let after = true_qos_rate soc in
  (* idling also relieves memory contention, so the loss is sublinear *)
  check_bool "idling reduces throughput" true (after < before *. 0.85)

let test_soc_qos_responds_to_frequency () =
  let soc = fresh_soc () in
  ignore (Soc.set_frequency soc 0 400.);
  let slow = true_qos_rate soc in
  ignore (Soc.set_frequency soc 0 2000.);
  let fast = true_qos_rate soc in
  check_bool "faster clock more FPS" true (fast > slow *. 1.3)

let test_soc_qos_responds_to_cores () =
  let soc = fresh_soc () in
  Soc.set_active_cores soc 0 1;
  let one = true_qos_rate soc in
  Soc.set_active_cores soc 0 4;
  let four = true_qos_rate soc in
  check_bool "more cores more FPS" true (four > one *. 1.5)

let test_soc_background_interference () =
  let soc = fresh_soc () in
  ignore (Soc.set_frequency soc 0 2000.);
  ignore (Soc.set_frequency soc 1 1400.);
  let clean_rate = true_qos_rate soc in
  let clean_power = true_chip_power soc in
  Soc.set_background_tasks soc 16;
  let dirty_rate = true_qos_rate soc in
  let dirty_power = true_chip_power soc in
  check_bool "background steals QoS" true (dirty_rate < clean_rate);
  check_bool "background burns power" true (dirty_power > clean_power);
  (* Paper Phase 3: with heavy background (the scenario uses 16 tasks)
     the 60 FPS reference must be unachievable even at full allocation. *)
  check_bool "60 FPS infeasible under disturbance" true (dirty_rate < 60.)

let test_soc_background_little_first () =
  let soc = fresh_soc () in
  (* 2 tasks * 0.6 util fit entirely on the Little cluster. *)
  let before = true_qos_rate soc in
  Soc.set_background_tasks soc 2;
  let after = true_qos_rate soc in
  check_bool "small background absorbed by little" true
    (abs_float (before -. after) < 1e-6)

let test_soc_power_range () =
  let soc = fresh_soc () in
  ignore (Soc.set_frequency soc 0 2000.);
  ignore (Soc.set_frequency soc 1 1400.);
  Soc.set_background_tasks soc 10;
  let peak = true_chip_power soc in
  ignore (Soc.set_frequency soc 0 200.);
  ignore (Soc.set_frequency soc 1 200.);
  Soc.set_background_tasks soc 0;
  Soc.set_active_cores soc 0 1;
  Soc.set_active_cores soc 1 1;
  let trough = true_chip_power soc in
  check_bool "peak < 7W" true (peak < 7.);
  check_bool "peak > 5W (TDP can bind)" true (peak > 5.);
  check_bool "trough < 1W" true (trough < 1.)

let test_soc_step_and_noise () =
  let soc = fresh_soc () in
  let obs1 = Soc.step soc ~dt:0.05 in
  let obs2 = Soc.step soc ~dt:0.05 in
  check_bool "time advances" true (obs2.Soc.time > obs1.Soc.time);
  check_bool "noise differs" true (obs1.Soc.chip_power <> obs2.Soc.chip_power);
  check_bool "noise small" true
    (abs_float (obs1.Soc.chip_power -. true_chip_power soc)
    /. true_chip_power soc
    < 0.2);
  check_int "8 cores" 8 (Array.length (Soc.per_core_ips soc));
  Alcotest.check_raises "bad dt" (Invalid_argument "Soc.step: dt <= 0")
    (fun () -> ignore (Soc.step soc ~dt:0.))

let test_soc_deterministic () =
  let run () =
    let soc = fresh_soc () in
    let acc = ref 0. in
    for _ = 1 to 20 do
      acc := !acc +. (Soc.step soc ~dt:0.05).Soc.chip_power
    done;
    !acc
  in
  check_float "same seed same trace" (run ()) (run ())

let test_soc_per_core_ips_idle_sensitive () =
  let soc = fresh_soc () in
  ignore (Soc.step soc ~dt:0.05);
  let base = (Soc.per_core_ips soc).(0) in
  Soc.set_idle_fraction soc ~core:0 0.8;
  ignore (Soc.step soc ~dt:0.05);
  let after = Soc.per_core_ips soc in
  check_bool "idled core reads lower IPS" true (after.(0) < base);
  check_bool "other core picks up share" true (after.(1) > 0.)

let test_soc_canneal_serial_phase () =
  (* During canneal's serialized phase, adding cores barely helps. *)
  let soc = Soc.create ~qos:Benchmarks.canneal () in
  Soc.set_active_cores soc 0 1;
  let one = true_qos_rate soc in
  Soc.set_active_cores soc 0 4;
  let four = true_qos_rate soc in
  check_bool "core scaling < 1.4x in serial phase" true (four /. one < 1.4)

(* With every noise σ at 0 the sensors read the physics exactly: right
   after [step_into], the observation must equal the ground truth bit
   for bit — the tick kernel and [Soc.ground_truth] compute one
   model.  Swept over three descriptions,
   a phased and a wobbling workload, shifting actuator settings and a
   permanently dead (non-host, then host) cluster. *)
let test_soc_truth_equals_noise_free_sensors () =
  let bits = Int64.bits_of_float in
  let run platform qos dead =
    let config =
      {
        (Soc.config_of platform) with
        Soc.power_noise = 0.;
        qos_noise = 0.;
        ips_noise = 0.;
        temp_noise = 0.;
      }
    in
    let soc = Soc.create ~config ~platform ~qos () in
    let k = Soc.num_clusters soc in
    (match dead with
    | None -> ()
    | Some i ->
        Soc.set_faults soc
          (Some (Faults.create [ Faults.permanent (Faults.Cluster_dead i) ~start_s:1. ])));
    let obs = Soc.make_observation () in
    for t = 1 to 60 do
      for i = 0 to k - 1 do
        let opp = Soc.opp_table soc i in
        let lo = Opp.min_freq opp and hi = Opp.max_freq opp in
        let f = lo + ((hi - lo) * ((t * (i + 3)) mod 11) / 10) in
        ignore (Soc.set_frequency soc i (float_of_int f));
        Soc.set_active_cores soc i (1 + ((t + i) mod Soc.cluster_cores soc i))
      done;
      Soc.set_background_tasks soc (3 * (t mod 7));
      Soc.set_idle_fraction soc ~core:(t mod 4) (0.1 *. float_of_int (t mod 5));
      Soc.step_into soc ~dt:0.25 obs;
      let label what =
        Printf.sprintf "%s %s dead=%s t=%d %s" (Platform_desc.name platform)
          qos.Workload.name
          (match dead with None -> "-" | Some i -> string_of_int i)
          t what
      in
      check_bool (label "chip power") true
        (bits obs.Soc.chip_power = bits (true_chip_power soc));
      check_bool (label "qos rate") true
        (bits obs.Soc.qos_rate = bits (true_qos_rate soc))
    done
  in
  List.iter
    (fun platform ->
      let host = Platform_desc.host platform in
      let k = Platform_desc.num_clusters platform in
      List.iter
        (fun qos ->
          List.iter (run platform qos) [ None; Some ((host + 1) mod k); Some host ])
        [ Benchmarks.canneal; Benchmarks.x264 ])
    [ Platform_desc.exynos5422; Platform_desc.pixel8pro; Platform_desc.k_cluster 3 ]

(* ------------------------------------------------------------------ *)
(* Thermal model                                                       *)
(* ------------------------------------------------------------------ *)

let test_thermal_starts_ambient () =
  let soc = fresh_soc () in
  check_float "starts at ambient" Soc.default_config.Soc.ambient_c
    (Soc.temperature soc)

let test_thermal_heats_under_load () =
  let soc = fresh_soc () in
  ignore (Soc.set_frequency soc 0 2000.);
  for _ = 1 to 200 do
    ignore (Soc.step soc ~dt:0.05)
  done;
  let t = Soc.temperature soc in
  (* steady state ~ ambient + R * P; ~5.5 W at full tilt -> ~72-75 C *)
  check_bool "hot under load" true (t > 60.);
  check_bool "bounded" true (t < 90.)

let test_thermal_cools_when_idle () =
  let soc = fresh_soc () in
  ignore (Soc.set_frequency soc 0 2000.);
  for _ = 1 to 200 do
    ignore (Soc.step soc ~dt:0.05)
  done;
  let hot = Soc.temperature soc in
  ignore (Soc.set_frequency soc 0 200.);
  Soc.set_active_cores soc 0 1;
  for _ = 1 to 200 do
    ignore (Soc.step soc ~dt:0.05)
  done;
  check_bool "cools down" true (Soc.temperature soc < hot -. 10.)

let test_thermal_time_constant () =
  (* After one time constant the gap to the steady state closes by
     roughly 63 %. *)
  let soc = fresh_soc () in
  ignore (Soc.set_frequency soc 0 2000.);
  let target =
    Soc.default_config.Soc.ambient_c
    +. (Soc.default_config.Soc.thermal_resistance *. true_chip_power soc)
  in
  let start = Soc.temperature soc in
  let tau = Soc.default_config.Soc.thermal_tau in
  let steps = int_of_float (tau /. 0.05) in
  for _ = 1 to steps do
    ignore (Soc.step soc ~dt:0.05)
  done;
  let progress = (Soc.temperature soc -. start) /. (target -. start) in
  (* power noise wiggles the target a little; accept a generous band *)
  check_bool "~63% progress after tau" true (progress > 0.5 && progress < 0.8)

let test_thermal_in_observation () =
  let soc = fresh_soc () in
  let obs = Soc.step soc ~dt:0.05 in
  check_bool "sensor near true value" true
    (abs_float (obs.Soc.temperature_c -. Soc.temperature soc)
    < 0.1 *. Soc.temperature soc)

(* ------------------------------------------------------------------ *)
(* Heartbeats                                                          *)
(* ------------------------------------------------------------------ *)

let test_heartbeats_rate () =
  let hb = Heartbeats.create ~window:1.0 ~reference:60. () in
  (* 30 beats over one second -> 30 HB/s *)
  for i = 1 to 10 do
    Heartbeats.beat hb ~now:(0.1 *. float_of_int i) ~count:3.
  done;
  check_float "rate" 30. (Heartbeats.rate hb ~now:1.0);
  check_float "total" 30. (Heartbeats.total hb)

let test_heartbeats_window_expiry () =
  let hb = Heartbeats.create ~window:0.5 ~reference:60. () in
  Heartbeats.beat hb ~now:0.1 ~count:10.;
  Heartbeats.beat hb ~now:1.0 ~count:5.;
  (* at t=1.2 only the second burst is inside the window *)
  check_float "old beats expired" 10. (Heartbeats.rate hb ~now:1.2)

let test_heartbeats_reference () =
  let hb = Heartbeats.create ~reference:60. () in
  check_float "initial" 60. (Heartbeats.reference hb);
  Heartbeats.set_reference hb 30.;
  check_float "updated" 30. (Heartbeats.reference hb);
  Alcotest.check_raises "bad ref"
    (Invalid_argument "Heartbeats.set_reference: reference <= 0") (fun () ->
      Heartbeats.set_reference hb 0.)

let test_heartbeats_time_monotone () =
  let hb = Heartbeats.create ~reference:1. () in
  Heartbeats.beat hb ~now:1.0 ~count:1.;
  Alcotest.check_raises "backwards"
    (Invalid_argument "Heartbeats.beat: time went backwards") (fun () ->
      Heartbeats.beat hb ~now:0.5 ~count:1.)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let test_trace_roundtrip () =
  let tr = Trace.create ~columns:[ "t"; "fps"; "power" ] () in
  Trace.add tr [| 0.; 60.; 4. |];
  Trace.add tr [| 0.05; 62.; 4.1 |];
  check_int "length" 2 (Trace.length tr);
  let fps = Trace.column tr "fps" in
  check_float "first" 60. fps.(0);
  check_float "second" 62. fps.(1);
  check_float "last power" 4.1 (Trace.last tr "power")

let test_trace_slice () =
  let tr = Trace.create ~columns:[ "v" ] () in
  for i = 0 to 9 do
    Trace.add tr [| float_of_int i |]
  done;
  let s = Trace.column_slice tr "v" ~from:3 ~upto:6 in
  check_int "slice length" 3 (Array.length s);
  check_float "slice start" 3. s.(0)

let test_trace_validation () =
  Alcotest.check_raises "dup" (Invalid_argument "Trace.create: duplicate column")
    (fun () -> ignore (Trace.create ~columns:[ "a"; "a" ] ()));
  let tr = Trace.create ~columns:[ "a" ] () in
  Alcotest.check_raises "width" (Invalid_argument "Trace.add: row width mismatch")
    (fun () -> Trace.add tr [| 1.; 2. |]);
  Alcotest.check_raises "unknown" (Invalid_argument "Trace: unknown column \"z\"")
    (fun () -> ignore (Trace.column tr "z"))

(* [to_csv] writes each value by hand; [Printf.sprintf "%.6g"] is the
   oracle it must match byte for byte, since digests, replay artifacts
   and CLI CSVs hash its text. *)
let expect_g name values =
  let n = Array.length values in
  let tr = Trace.create ~cap:(max 1 n) ~columns:[ "x" ] () in
  Array.iter (fun v -> Trace.add tr [| v |]) values;
  let got = Trace.to_csv tr in
  let want = Buffer.create (n * 12) in
  Buffer.add_string want "x\n";
  Array.iter
    (fun v ->
      Buffer.add_string want (Printf.sprintf "%.6g" v);
      Buffer.add_char want '\n')
    values;
  if got <> Buffer.contents want then begin
    let lines = Array.of_list (String.split_on_char '\n' got) in
    Array.iteri
      (fun i v ->
        let line = if i + 1 < Array.length lines then lines.(i + 1) else "" in
        if line <> Printf.sprintf "%.6g" v then
          Alcotest.failf "%s: %h writes %S, Printf %S" name v line
            (Printf.sprintf "%.6g" v))
      values;
    Alcotest.failf "%s: CSV differs outside the values" name
  end

let test_trace_csv () =
  let tr = Trace.create ~columns:[ "a"; "b" ] () in
  Trace.add tr [| 1.; 2. |];
  check_bool "csv" true (Trace.to_csv tr = "a,b\n1,2\n");
  (* Named edges, one one-column trace each. *)
  List.iter
    (fun v -> expect_g (Printf.sprintf "%h" v) [| v |])
    [
      0.; -0.; infinity; neg_infinity; nan; Float.neg nan;
      999999.; -999999.; 1e6; -1e6; 1e-4; 1e-5; 0.1; 0.01; 0.001;
      9.999995; 99999.95; 999999.5; 123457.5; 123456.5; 12345.75;
      -123457.5; 4.9e-324; 2.2e-308; 5e15; 0.30000000000000004;
    ];
  (* Seeded classes, a million values each. *)
  let n = 1_000_000 in
  let st = Random.State.make [| 30 |] in
  let uniform lo hi = Array.init n (fun _ -> lo +. Random.State.float st (hi -. lo)) in
  expect_g "integers in +-1.5e6"
    (Array.init n (fun _ ->
         float_of_int (Random.State.int st 3_000_001 - 1_500_000)));
  expect_g "uniform in +-1e6" (uniform (-1e6) 1e6);
  expect_g "uniform in +-10" (uniform (-10.) 10.);
  expect_g "uniform in [0, 0.002]" (uniform 0. 0.002);
  expect_g "raw bit patterns"
    (Array.init n (fun _ -> Int64.float_of_bits (Random.State.bits64 st)));
  expect_g "k/1e6" (Array.init n (fun k -> float_of_int k /. 1e6));
  (* Half a unit from a six-digit boundary, in each of the ten decades
     the hand-written path covers (k + 0.5 itself is an exact tie). *)
  expect_g "near-ties"
    (Array.init n (fun i ->
         let k = 100_000 + (i mod 100_000) and j = i / 100_000 in
         let v = (float_of_int k +. 0.5) /. (10. ** float_of_int j) in
         if k land 1 = 0 then v else -.v));
  expect_g "seven significant digits"
    (Array.init n (fun _ ->
         float_of_int (1_000_000 + Random.State.int st 9_000_000)
         /. (10. ** float_of_int (Random.State.int st 11))))

(* [csv_digest] streams [to_csv]'s rows through a fixed buffer (2 000
   bytes, or one row bound when a row needs more); it must equal the MD5
   of the text for CSVs shorter and longer than that buffer, on values
   that take every branch of the value writer. *)
let test_trace_csv_digest () =
  let values =
    [|
      3.; -42.; 0.; -0.; nan; Float.neg nan; infinity; neg_infinity;
      1e6; -2.5e7; 5e-5; -1e-300; 3.14159; -0.001234;
      123456.5 (* exact tie: left to the C library *);
      99999.96 (* rounds up to 10^6: the exponent changes *);
      0.30000000000000004; 999999.;
    |]
  in
  let trace ~columns ~rows =
    let names = List.init columns (Printf.sprintf "column_%03d") in
    let tr = Trace.create ~columns:names () in
    for r = 0 to rows - 1 do
      Trace.add tr
        (Array.init columns (fun c ->
             values.(((r * columns) + c) mod Array.length values)))
    done;
    tr
  in
  List.iter
    (fun (columns, rows) ->
      let tr = trace ~columns ~rows in
      let csv = Trace.to_csv tr in
      Alcotest.(check string)
        (Printf.sprintf "%d x %d (%d B)" rows columns (String.length csv))
        (Digest.to_hex (Digest.string csv))
        (Trace.csv_digest tr))
    [ (1, 0); (3, 1); (5, 40); (7, 80); (18, 1000); (150, 0); (150, 3) ]

let test_trace_growth () =
  (* Well past the 256-row initial capacity, across several doublings:
     the column-major growable storage must behave exactly like the old
     row list. *)
  let n = 3000 in
  let tr = Trace.create ~columns:[ "i"; "sq" ] () in
  for i = 0 to n - 1 do
    Trace.add tr [| float_of_int i; float_of_int (i * i) |]
  done;
  check_int "length" n (Trace.length tr);
  let sq = Trace.column tr "sq" in
  check_int "column length" n (Array.length sq);
  check_float "first" 0. sq.(0);
  check_float "middle" (float_of_int (1500 * 1500)) sq.(1500);
  check_float "last cell" (float_of_int ((n - 1) * (n - 1))) sq.(n - 1);
  let s = Trace.column_slice tr "i" ~from:250 ~upto:260 in
  check_int "slice across the first doubling" 10 (Array.length s);
  check_float "slice start" 250. s.(0);
  check_float "slice end" 259. s.(9);
  check_float "last" (float_of_int (n - 1)) (Trace.last tr "i")

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)
(* ------------------------------------------------------------------ *)

let check_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let test_faults_validation () =
  check_invalid "negative start" (fun () ->
      Faults.injection Faults.Dvfs_stuck ~start_s:(-1.) ~stop_s:1.);
  check_invalid "nan start" (fun () ->
      Faults.injection Faults.Dvfs_stuck ~start_s:nan ~stop_s:1.);
  check_invalid "empty window" (fun () ->
      Faults.injection Faults.Dvfs_stuck ~start_s:2. ~stop_s:2.);
  check_invalid "infinite stop" (fun () ->
      Faults.injection Faults.Dvfs_stuck ~start_s:2. ~stop_s:infinity);
  check_invalid "nan spike magnitude" (fun () ->
      Faults.injection (Faults.Spike_burst (Power, nan)) ~start_s:0. ~stop_s:1.);
  check_invalid "non-positive spike magnitude" (fun () ->
      Faults.injection (Faults.Spike_burst (Qos, 0.)) ~start_s:0. ~stop_s:1.);
  (* create applies the same validation to every element. *)
  check_invalid "create validates elements" (fun () ->
      Faults.create
        [ { Faults.fault = Faults.Dvfs_stuck; start_s = 3.; stop_s = 1. } ])

let test_faults_serialization () =
  let kinds =
    [
      Faults.Dropout Power;
      Faults.Dropout Qos;
      Faults.Stuck_at_last Power;
      Faults.Stuck_at_last Qos;
      Faults.Spike_burst (Power, 5.);
      Faults.Spike_burst (Qos, 0.1234567890123456789);
      Faults.Dvfs_stuck;
      Faults.Gating_refused;
      Faults.Heartbeat_stall;
    ]
  in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        ("kind roundtrip " ^ Faults.kind_to_string k)
        true
        (Faults.kind_of_string (Faults.kind_to_string k) = k))
    kinds;
  List.iter
    (fun k ->
      let i = Faults.injection k ~start_s:1.05 ~stop_s:6.789012345678901 in
      Alcotest.(check bool)
        ("injection roundtrip " ^ Faults.injection_to_string i)
        true
        (Faults.injection_of_string (Faults.injection_to_string i) = i))
    kinds;
  check_invalid "bad kind string" (fun () -> Faults.kind_of_string "meteor");
  check_invalid "bad spike magnitude string" (fun () ->
      Faults.kind_of_string "spike:power:wat");
  check_invalid "bad injection string" (fun () ->
      Faults.injection_of_string "dvfs-stuck");
  (* Deserialization re-validates windows: a hand-edited artifact with a
     negative onset is rejected, not silently misapplied. *)
  check_invalid "deserialized negative onset" (fun () ->
      Faults.injection_of_string "dvfs-stuck@-1/2")

(* Exhaustive round-trip over the full kind space: every sensor channel
   (including all 16 per-cluster power channels) under every
   sensor-indexed constructor, every per-cluster Cluster_dead, the
   nullary kinds, and awkward spike magnitudes.  Permanent kinds
   round-trip through their onset-only windows ([stop_s = infinity]
   prints as "inf" and parses back exactly). *)
let test_faults_serialization_exhaustive () =
  let sensors =
    Faults.[ Power; Qos; Temp ]
    @ List.init 16 (fun i -> Faults.Power_cluster i)
  in
  let magnitudes = [ 0.5; 1.; 4.; 0.1234567890123456789; 1e-3; 1e6 ] in
  let transient =
    List.concat_map
      (fun s ->
        [ Faults.Dropout s; Faults.Stuck_at_last s ]
        @ List.map (fun m -> Faults.Spike_burst (s, m)) magnitudes)
      sensors
    @ Faults.[ Dvfs_stuck; Gating_refused; Heartbeat_stall ]
  in
  let permanent =
    List.map (fun s -> Faults.Sensor_dead s) sensors
    @ List.init 16 (fun i -> Faults.Cluster_dead i)
    @ [ Faults.Dvfs_stuck_permanent ]
  in
  let roundtrip k =
    Alcotest.(check bool)
      ("kind roundtrip " ^ Faults.kind_to_string k)
      true
      (Faults.kind_of_string (Faults.kind_to_string k) = k)
  in
  List.iter roundtrip transient;
  List.iter roundtrip permanent;
  (* Partition agreement: the permanent predicate matches the split. *)
  List.iter
    (fun k ->
      Alcotest.(check bool)
        ("transient " ^ Faults.kind_to_string k)
        false (Faults.is_permanent k))
    transient;
  List.iter
    (fun k ->
      Alcotest.(check bool)
        ("permanent " ^ Faults.kind_to_string k)
        true (Faults.is_permanent k))
    permanent;
  (* Injection round-trip: transient kinds over finite windows with
     non-representable decimal endpoints, permanent kinds onset-only. *)
  List.iter
    (fun k ->
      let i = Faults.injection k ~start_s:0.30000000000000004 ~stop_s:9.7 in
      Alcotest.(check bool)
        ("injection roundtrip " ^ Faults.injection_to_string i)
        true
        (Faults.injection_of_string (Faults.injection_to_string i) = i))
    transient;
  List.iter
    (fun k ->
      let i = Faults.permanent k ~start_s:2.05 in
      let s = Faults.injection_to_string i in
      Alcotest.(check bool)
        ("onset-only roundtrip " ^ s)
        true
        (Faults.injection_of_string s = i);
      Alcotest.(check bool)
        ("onset-only prints inf: " ^ s)
        true
        (String.length s >= 4
        && String.sub s (String.length s - 4) 4 = "/inf"))
    permanent;
  (* Malformed strings: every rejection is a parse error, never a
     silently-misread schedule. *)
  let bad = check_invalid in
  bad "channel index at ceiling" (fun () ->
      Faults.kind_of_string "stuck:power16");
  bad "negative channel index" (fun () ->
      Faults.kind_of_string "dropout:power-1");
  bad "bare channel digits" (fun () -> Faults.kind_of_string "stuck:16");
  bad "dead cluster at ceiling" (fun () ->
      Faults.kind_of_string "cluster-dead:16");
  bad "dead cluster negative" (fun () ->
      Faults.kind_of_string "cluster-dead:-1");
  bad "dead cluster non-numeric" (fun () ->
      Faults.kind_of_string "cluster-dead:big");
  bad "dead sensor unknown" (fun () ->
      Faults.kind_of_string "sensor-dead:banana");
  bad "spike magnitude infinite" (fun () ->
      Faults.kind_of_string "spike:qos:inf");
  bad "spike magnitude negative" (fun () ->
      Faults.kind_of_string "spike:power:-2");
  bad "trailing colon" (fun () -> Faults.kind_of_string "dvfs-stuck:");
  bad "empty string" (fun () -> Faults.kind_of_string "");
  (* Window re-validation through the injection parser: a permanent
     kind with a finite stop, and a transient kind with an infinite
     one, are both schedule bugs. *)
  bad "permanent kind with finite stop" (fun () ->
      Faults.injection_of_string "cluster-dead:1@2/8");
  bad "transient kind with infinite stop" (fun () ->
      Faults.injection_of_string "dvfs-stuck@2/inf");
  bad "missing window" (fun () ->
      Faults.injection_of_string "sensor-dead:power");
  bad "garbled window" (fun () ->
      Faults.injection_of_string "cluster-dead:1@2")

let test_faults_windows () =
  let f =
    Faults.create
      [
        Faults.injection Faults.Dvfs_stuck ~start_s:1. ~stop_s:2.;
        Faults.injection (Faults.Dropout Power) ~start_s:1.5 ~stop_s:3.;
      ]
  in
  let at now = Faults.advance f { Faults.now } in
  at 0.9;
  check_bool "before" false (Faults.dvfs_stuck f);
  at 1.;
  check_bool "inside" true (Faults.dvfs_stuck f);
  at 2.;
  check_bool "stop exclusive" false (Faults.dvfs_stuck f);
  at 1.7;
  check_int "overlap count" 2 (Faults.active_count f);
  at 5.;
  check_int "none active" 0 (Faults.active_count f)

let test_faults_shift () =
  let shifted =
    Faults.shift
      [ Faults.injection Faults.Heartbeat_stall ~start_s:0.5 ~stop_s:1. ]
      ~by:3.
  in
  match shifted with
  | [ { Faults.start_s; stop_s; _ } ] ->
      check_float "start" 3.5 start_s;
      check_float "stop" 4. stop_s
  | _ -> Alcotest.fail "one injection expected"

(* A schedule whose windows never become active must leave the SoC's
   sensor stream bit-identical: the fault layer draws from its own PRNG
   and only while a spike window is live. *)
let test_faults_inactive_identity () =
  let run faults =
    let soc = fresh_soc () in
    Soc.set_faults soc faults;
    List.init 40 (fun _ -> Soc.step soc ~dt:0.05)
  in
  let plain = run None in
  let armed =
    run
      (Some
         (Faults.create
            [
              Faults.injection
                (Faults.Spike_burst (Power, 5.))
                ~start_s:100. ~stop_s:101.;
            ]))
  in
  List.iter2
    (fun (a : Soc.observation) (b : Soc.observation) ->
      check_float "chip power" a.Soc.chip_power b.Soc.chip_power;
      check_float "qos" a.Soc.qos_rate b.Soc.qos_rate;
      check_float "temperature" a.Soc.temperature_c b.Soc.temperature_c)
    plain armed

let soc_with fault ~start_s ~stop_s =
  let soc = fresh_soc () in
  Soc.set_faults soc (Some (Faults.create [ Faults.injection fault ~start_s ~stop_s ]));
  soc

let test_faults_power_dropout () =
  let soc = soc_with (Faults.Dropout Power) ~start_s:0. ~stop_s:10. in
  let obs = Soc.step soc ~dt:0.05 in
  ignore obs;
  let powers = Soc.sensor_powers soc in
  check_float "big reads dead" 0. powers.(0);
  check_float "little reads dead" 0. powers.(1);
  check_bool "chip still burns power" true (true_chip_power soc > 0.5)

let test_faults_qos_stuck () =
  let soc = soc_with (Faults.Stuck_at_last Qos) ~start_s:1. ~stop_s:10. in
  let last_healthy = ref 0. in
  for _ = 1 to 19 do
    last_healthy := (Soc.step soc ~dt:0.05).Soc.qos_rate
  done;
  (* Fault opens at t = 1; every subsequent reading repeats the last
     pre-fault one exactly, which live noisy sensors never do. *)
  for _ = 1 to 10 do
    check_float "stuck repeats last reading" !last_healthy
      (Soc.step soc ~dt:0.05).Soc.qos_rate
  done

let test_faults_spikes () =
  let f =
    Faults.create
      [ Faults.injection (Faults.Spike_burst (Power, 5.)) ~start_s:0. ~stop_s:10. ]
  in
  Faults.advance f { Faults.now = 1. };
  let spiked = ref 0 and clean = ref 0 in
  let sens = Array.make 3 0. in
  for _ = 1 to 100 do
    sens.(0) <- 2.;
    Faults.apply_sensors f sens ~k:1;
    let v = sens.(0) in
    if v = 10. then incr spiked
    else if v = 2. then incr clean
    else Alcotest.failf "unexpected sample %g" v
  done;
  check_bool "some samples spike" true (!spiked > 0);
  check_bool "most samples clean" true (!clean > !spiked)

let test_faults_heartbeat_stall () =
  let f =
    Faults.create
      [ Faults.injection Faults.Heartbeat_stall ~start_s:0. ~stop_s:10. ]
  in
  let qos_at now =
    Faults.advance f { Faults.now };
    let sens = [| 1.; 57.; 40. |] in
    Faults.apply_sensors f sens ~k:1;
    sens.(1)
  in
  check_float "qos reads zero" 0. (qos_at 1.);
  check_float "clears after window" 57. (qos_at 11.)

let test_faults_dvfs_stuck () =
  let soc = soc_with Faults.Dvfs_stuck ~start_s:0. ~stop_s:1. in
  let before = Soc.frequency soc 0 in
  let applied = Soc.set_frequency soc 0 2000. in
  check_int "request ignored" before applied;
  check_int "frequency unchanged" before (Soc.frequency soc 0);
  (* Advance past the window; the driver obeys again. *)
  for _ = 1 to 25 do
    ignore (Soc.step soc ~dt:0.05)
  done;
  check_int "works after window" 2000 (Soc.set_frequency soc 0 2000.)

let test_faults_gating_refused () =
  let soc = soc_with Faults.Gating_refused ~start_s:0. ~stop_s:1. in
  let before = Soc.active_cores soc 0 in
  Soc.set_active_cores soc 0 1;
  check_int "request refused" before (Soc.active_cores soc 0);
  for _ = 1 to 25 do
    ignore (Soc.step soc ~dt:0.05)
  done;
  Soc.set_active_cores soc 0 1;
  check_int "works after window" 1 (Soc.active_cores soc 0)

(* ------------------------------------------------------------------ *)
(* Integration: sysid on the simulated platform                        *)
(* ------------------------------------------------------------------ *)

let test_identify_big_cluster () =
  (* Paper §5/§6 Step 5: excite the Big cluster with the microbenchmark
     and staircase inputs, fit a 2x2 ARX model, and check R² >= 0.8 (the
     design-flow identifiability gate). *)
  let soc = Soc.create ~qos:Benchmarks.microbench () in
  let steps = 900 in
  let freq_sig =
    Signals.staircase ~lo:600. ~hi:1800. ~num_levels:6 ~hold:12
      ~length:steps
  in
  let cores_sig =
    Signals.staircase ~lo:1. ~hi:4. ~num_levels:4 ~hold:20
      ~length:steps
  in
  let u = Array.make steps [||] in
  let y = Array.make steps [||] in
  for t = 0 to steps - 1 do
    let f = Soc.set_frequency soc 0 freq_sig.(t) in
    Soc.set_active_cores soc 0
      (int_of_float (Float.round cores_sig.(t)));
    let obs = Soc.step soc ~dt:0.05 in
    u.(t) <- [| float_of_int f /. 1000.; Float.round cores_sig.(t) |];
    y.(t) <- [| obs.Soc.qos_rate; (Soc.sensor_powers soc).(0) |]
  done;
  let data = Spectr_sysid.Dataset.create ~u ~y in
  let standardized, _, _ = Spectr_sysid.Dataset.standardize data in
  let est, held_out = Spectr_sysid.Dataset.split standardized ~at:0.6 in
  match Spectr_sysid.Arx.fit ~na:2 ~nb:2 est with
  | Error e -> Alcotest.failf "fit: %a" Spectr_sysid.Arx.pp_error e
  | Ok model ->
      let report =
        Spectr_sysid.Validation.validate
          ~output_names:[| "qos"; "power" |]
          ~model held_out
      in
      Array.iter
        (fun c ->
          check_bool
            (c.Spectr_sysid.Validation.name ^ " R2 >= 0.8")
            true
            (c.Spectr_sysid.Validation.r_squared >= 0.8))
        report.Spectr_sysid.Validation.channels

(* ------------------------------------------------------------------ *)
(* Platform_desc                                                       *)
(* ------------------------------------------------------------------ *)

let test_desc_builtins () =
  List.iter
    (fun p ->
      check_bool
        (Platform_desc.name p ^ " has clusters")
        true
        (Platform_desc.num_clusters p >= 1);
      check_bool
        (Platform_desc.name p ^ " host in range")
        true
        (Platform_desc.host p >= 0
        && Platform_desc.host p < Platform_desc.num_clusters p);
      check_bool
        (Platform_desc.name p ^ " describes")
        true
        (String.length (Platform_desc.describe p) > 0))
    (Platform_desc.builtins ());
  (* The reference platform's identity is load-bearing: design-flow memo
     keys, checkpoint tags and the byte-identity gate all hang off it. *)
  Alcotest.(check string)
    "exynos5422 digest pinned" "0c8dadf6e533fd63e717d00fbe39844a"
    (Platform_desc.digest Platform_desc.exynos5422);
  check_int "exynos clusters" 2
    (Platform_desc.num_clusters Platform_desc.exynos5422);
  check_int "exynos cores" 8 (Platform_desc.total_cores Platform_desc.exynos5422);
  check_int "pixel8pro clusters" 3
    (Platform_desc.num_clusters Platform_desc.pixel8pro);
  check_int "pixel8pro cores" 9
    (Platform_desc.total_cores Platform_desc.pixel8pro)

let test_desc_csv_roundtrip () =
  List.iter
    (fun p ->
      match Platform_desc.of_csv_string (Platform_desc.to_csv_string p) with
      | Ok q ->
          Alcotest.(check string)
            (Platform_desc.name p ^ " round-trips")
            (Platform_desc.digest p) (Platform_desc.digest q)
      | Error e ->
          Alcotest.failf "%s: %s" (Platform_desc.name p)
            (Format.asprintf "%a" Platform_desc.pp_parse_error e))
    (Platform_desc.builtins ())

(* The digest is computed once, in [create]; it must equal the digest of
   the canonical serialization on every construction path, and a
   caller's later writes into the array it passed to [create] must not
   reach the description. *)
let test_desc_digest_invariant () =
  let check p =
    Alcotest.(check string)
      (Platform_desc.name p ^ " digest = md5 of csv")
      (Digest.to_hex (Digest.string (Platform_desc.to_csv_string p)))
      (Platform_desc.digest p)
  in
  let roundtrip p =
    match Platform_desc.of_csv_string (Platform_desc.to_csv_string p) with
    | Ok q -> q
    | Error e ->
        Alcotest.failf "%s: %s" (Platform_desc.name p)
          (Format.asprintf "%a" Platform_desc.pp_parse_error e)
  in
  let builtins = Platform_desc.builtins () in
  List.iter check builtins;
  List.iter (fun p -> check (roundtrip p)) builtins;
  for k = 1 to 16 do
    check (Platform_desc.k_cluster k)
  done;
  List.iter
    (fun p ->
      let n = Platform_desc.num_clusters p in
      for i = 0 to n - 1 do
        let c = Platform_desc.cluster p i in
        check
          (Platform_desc.degrade p
             (Platform_desc.Pin_opp
                { cluster = i; freq_mhz = Opp.min_freq c.Platform_desc.opp }));
        if i <> Platform_desc.host p then
          check (Platform_desc.degrade p (Platform_desc.Remove_cluster i))
      done)
    builtins;
  let p = Platform_desc.pixel8pro in
  let clusters =
    Array.init (Platform_desc.num_clusters p) (Platform_desc.cluster p)
  in
  let q =
    Platform_desc.create ~name:"copy" ~clusters ~host:(Platform_desc.host p)
      ~thermal:(Platform_desc.thermal p)
  in
  let before = Platform_desc.digest q in
  clusters.(0) <- { (clusters.(0)) with Platform_desc.cores = 1 };
  check q;
  Alcotest.(check string) "caller's array is not shared" before
    (Platform_desc.digest q);
  check_int "cores unchanged" 4 (Platform_desc.cluster q 0).Platform_desc.cores

let test_desc_csv_errors () =
  let reject ?line what csv =
    match Platform_desc.of_csv_string csv with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" what
    | Error e -> (
        match line with
        | Some l -> check_int (what ^ " line") l e.Platform_desc.line
        | None -> ())
  in
  reject "empty" "";
  reject ~line:1 "unknown row kind" "bogus,1,2\n";
  reject ~line:2 "bad core count"
    "platform,p\ncluster,big,zero,0.3,0.1,0.01,0.1,host\n";
  reject "missing thermal"
    "platform,p\nhost,big\ncluster,big,4,0.3,0.1,0.01,0.1,host\n\
     opp,big,1000,1.0\n";
  reject "unknown host cluster"
    "platform,p\nthermal,25,2,8\nhost,nope\n\
     cluster,big,4,0.3,0.1,0.01,0.1,host\nopp,big,1000,1.0\n";
  reject "cluster without opps"
    "platform,p\nthermal,25,2,8\nhost,big\n\
     cluster,big,4,0.3,0.1,0.01,0.1,host\n"

let test_desc_k_cluster () =
  let p = Platform_desc.k_cluster 5 in
  check_int "k5 clusters" 5 (Platform_desc.num_clusters p);
  check_int "k5 host" 0 (Platform_desc.host p);
  Alcotest.check_raises "k0 rejected"
    (Invalid_argument "Platform_desc.k_cluster: k = 0 not in 1..16")
    (fun () -> ignore (Platform_desc.k_cluster 0));
  (* Core offsets tile the global core index space. *)
  let off = ref 0 in
  for i = 0 to Platform_desc.num_clusters p - 1 do
    check_int
      (Printf.sprintf "offset %d" i)
      !off
      (Platform_desc.core_offset p i);
    off := !off + (Platform_desc.cluster p i).Platform_desc.cores
  done;
  check_int "offsets cover all cores" (Platform_desc.total_cores p) !off

let test_desc_find_cluster () =
  let p = Platform_desc.pixel8pro in
  Alcotest.(check (option int))
    "big found"
    (Some (Platform_desc.host p))
    (Platform_desc.find_cluster p "big");
  Alcotest.(check (option int))
    "unknown cluster" None
    (Platform_desc.find_cluster p "gpu")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "spectr_platform"
    [
      ( "opp",
        [
          Alcotest.test_case "tables" `Quick test_opp_tables;
          Alcotest.test_case "nearest" `Quick test_opp_nearest;
          Alcotest.test_case "nearest scan (non-uniform)" `Quick
            test_opp_nearest_scan;
          Alcotest.test_case "voltage monotone" `Quick test_opp_voltage_monotone;
          Alcotest.test_case "voltage unknown" `Quick test_opp_voltage_unknown;
          Alcotest.test_case "create validation" `Quick
            test_opp_create_validation;
        ] );
      ( "workload",
        [
          Alcotest.test_case "validation" `Quick test_workload_validation;
          Alcotest.test_case "phases" `Quick test_workload_phases;
          Alcotest.test_case "phase default" `Quick test_workload_phase_default;
          Alcotest.test_case "amdahl" `Quick test_amdahl;
        ] );
      ( "benchmarks",
        [
          Alcotest.test_case "PARSEC speedup range" `Quick
            test_speedup_range_parsec;
          Alcotest.test_case "x264 FPS ceiling" `Quick test_x264_fps_ceiling;
          Alcotest.test_case "lookup" `Quick test_benchmark_lookup;
          Alcotest.test_case "max rate pins" `Quick test_max_qos_rate_pins;
        ] );
      ( "perf-model",
        [
          Alcotest.test_case "monotone in frequency" `Quick
            test_perf_monotone_in_frequency;
          Alcotest.test_case "memory-bound saturates" `Quick
            test_perf_memory_bound_saturates;
          Alcotest.test_case "little slower" `Quick test_perf_little_slower;
          Alcotest.test_case "freq scaling exact" `Quick
            test_perf_freq_scaling_exact;
          Alcotest.test_case "IPC reference" `Quick test_perf_ipc_reference;
        ] );
      ( "power-model",
        [
          Alcotest.test_case "full tilt" `Quick test_power_full_tilt;
          Alcotest.test_case "monotone" `Quick test_power_monotone;
          Alcotest.test_case "core gating" `Quick test_power_core_gating;
          Alcotest.test_case "utilization" `Quick test_power_utilization;
          Alcotest.test_case "little cheap" `Quick test_power_little_cheap;
        ] );
      ( "soc",
        [
          Alcotest.test_case "actuators" `Quick test_soc_actuators;
          Alcotest.test_case "idle insertion" `Quick test_soc_idle_insertion;
          Alcotest.test_case "idle reduces qos" `Quick test_soc_idle_reduces_qos;
          Alcotest.test_case "qos vs frequency" `Quick
            test_soc_qos_responds_to_frequency;
          Alcotest.test_case "qos vs cores" `Quick test_soc_qos_responds_to_cores;
          Alcotest.test_case "background interference" `Quick
            test_soc_background_interference;
          Alcotest.test_case "background little first" `Quick
            test_soc_background_little_first;
          Alcotest.test_case "power range" `Quick test_soc_power_range;
          Alcotest.test_case "step and noise" `Quick test_soc_step_and_noise;
          Alcotest.test_case "deterministic" `Quick test_soc_deterministic;
          Alcotest.test_case "per-core IPS idle" `Quick
            test_soc_per_core_ips_idle_sensitive;
          Alcotest.test_case "canneal serial phase" `Quick
            test_soc_canneal_serial_phase;
          Alcotest.test_case "truth equals noise-free sensors" `Quick
            test_soc_truth_equals_noise_free_sensors;
        ] );
      ( "thermal",
        [
          Alcotest.test_case "starts at ambient" `Quick
            test_thermal_starts_ambient;
          Alcotest.test_case "heats under load" `Quick
            test_thermal_heats_under_load;
          Alcotest.test_case "cools when idle" `Quick
            test_thermal_cools_when_idle;
          Alcotest.test_case "time constant" `Quick test_thermal_time_constant;
          Alcotest.test_case "observation sensor" `Quick
            test_thermal_in_observation;
        ] );
      ( "heartbeats",
        [
          Alcotest.test_case "rate" `Quick test_heartbeats_rate;
          Alcotest.test_case "window expiry" `Quick test_heartbeats_window_expiry;
          Alcotest.test_case "reference" `Quick test_heartbeats_reference;
          Alcotest.test_case "time monotone" `Quick test_heartbeats_time_monotone;
        ] );
      ( "trace",
        [
          Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip;
          Alcotest.test_case "slice" `Quick test_trace_slice;
          Alcotest.test_case "validation" `Quick test_trace_validation;
          Alcotest.test_case "csv" `Quick test_trace_csv;
          Alcotest.test_case "csv digest streamed" `Quick
            test_trace_csv_digest;
          Alcotest.test_case "growth past initial capacity" `Quick
            test_trace_growth;
        ] );
      ( "faults",
        [
          Alcotest.test_case "validation" `Quick test_faults_validation;
          Alcotest.test_case "serialization roundtrip" `Quick
            test_faults_serialization;
          Alcotest.test_case "serialization exhaustive" `Quick
            test_faults_serialization_exhaustive;
          Alcotest.test_case "windows" `Quick test_faults_windows;
          Alcotest.test_case "shift" `Quick test_faults_shift;
          Alcotest.test_case "inactive is bit-identical" `Quick
            test_faults_inactive_identity;
          Alcotest.test_case "power dropout" `Quick test_faults_power_dropout;
          Alcotest.test_case "qos stuck" `Quick test_faults_qos_stuck;
          Alcotest.test_case "spike bursts" `Quick test_faults_spikes;
          Alcotest.test_case "heartbeat stall" `Quick
            test_faults_heartbeat_stall;
          Alcotest.test_case "dvfs stuck" `Quick test_faults_dvfs_stuck;
          Alcotest.test_case "gating refused" `Quick test_faults_gating_refused;
        ] );
      ( "platform-desc",
        [
          Alcotest.test_case "builtins validate" `Quick test_desc_builtins;
          Alcotest.test_case "csv round-trip" `Quick test_desc_csv_roundtrip;
          Alcotest.test_case "digest invariant" `Quick
            test_desc_digest_invariant;
          Alcotest.test_case "csv parse errors" `Quick test_desc_csv_errors;
          Alcotest.test_case "k-cluster generator" `Quick test_desc_k_cluster;
          Alcotest.test_case "find cluster" `Quick test_desc_find_cluster;
        ] );
      ( "integration",
        [
          Alcotest.test_case "identify Big cluster" `Slow
            test_identify_big_cluster;
        ] );
    ]
