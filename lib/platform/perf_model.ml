(* Shared-DRAM bandwidth contention: every additional busy core inflates
   the memory-stall CPI term by this fraction.  This is the unmodelled
   cross-core interaction that makes per-core (10×10) identification hard
   on real hardware (§2.2): per-core throughput carries products of the
   per-core idle knobs, which no linear model can attribute. *)
let contention = 0.12

let contention_factor ~busy_cores =
  1. +. (contention *. Float.max 0. (busy_cores -. 1.))

(* Derive (a, b) such that, with four busy cores (the calibration point
   of the paper's speedup measurements),
     IPS(f) = f / (a + b·κ₄·f)          κ₄ = contention_factor 4
   satisfies IPS(1 GHz) = base_ipc_big * 1e9  and
   IPS(f_max)/IPS(f_min) = freq_scaling over the host cluster's DVFS
   range. *)
let base_coefficients w ~opp =
  let r = w.Workload.freq_scaling in
  let f_min = float_of_int (Opp.min_freq opp) /. 1000. in
  let f_max = float_of_int (Opp.max_freq opp) /. 1000. in
  let rho = f_max /. f_min in
  (* On the built-in Exynos Big table r < rho always holds (freq_scaling
     is validated > 1); an arbitrary description's host range can be too
     narrow for the workload's measured speedup, which the CPI law
     cannot represent (it needs s >= 0). *)
  if rho <= r then
    invalid_arg
      (Printf.sprintf
         "Perf_model.base_coefficients: workload %s needs an OPP range \
          ratio above its freq_scaling %g (host table %s spans only %g)"
         w.Workload.name r opp.Opp.name rho);
  let s = (rho -. r) /. ((r *. f_max) -. (rho *. f_min)) in
  let a = 1. /. (w.Workload.base_ipc_big *. (1. +. s)) in
  let kappa4 = contention_factor ~busy_cores:4. in
  (a, s *. a /. kappa4)

(* Description-driven coefficients: the host cluster gets the derivation
   above over its own OPP range; every other cluster's law is expressed
   relative to the host (or fully calibrated) per its [cpi_law].  On
   [Platform_desc.exynos5422] the Little cluster's [Workload_ratio 1.0]
   divides the compute CPI by [little_ipc_ratio *. 1.0] — in-order cores
   burn more compute cycles per instruction — and shares the
   memory-stall term (same DRAM behind both clusters). *)
let coefficients_for w desc i =
  let host = Platform_desc.host desc in
  let host_opp = (Platform_desc.cluster desc host).Platform_desc.opp in
  let a, b = base_coefficients w ~opp:host_opp in
  if i = host then (a, b)
  else
    match (Platform_desc.cluster desc i).Platform_desc.cpi with
    | Platform_desc.Host_law -> (a, b)
    | Platform_desc.Workload_ratio r ->
        (a /. (w.Workload.little_ipc_ratio *. r), b)
    | Platform_desc.Fixed_ratio r -> (a /. r, b)
    | Platform_desc.Absolute { cpi_a; cpi_b } -> (cpi_a, cpi_b)

(* Rate on the description's host cluster at the nominal parallel
   fraction and no demand disturbance. *)
let qos_rate_for desc w ~freq_mhz ~effective_cores =
  let host = Platform_desc.host desc in
  let a, b = coefficients_for w desc host in
  let f_ghz = float_of_int freq_mhz /. 1000. in
  let core =
    f_ghz *. 1e9
    /. (a +. (b *. contention_factor ~busy_cores:effective_cores *. f_ghz))
  in
  core
  *. Workload.amdahl_speedup
       ~parallel_fraction:w.Workload.parallel_fraction ~cores:effective_cores
  /. w.Workload.instructions_per_heartbeat

let max_qos_rate_for desc w =
  let host = Platform_desc.host desc in
  let c = Platform_desc.cluster desc host in
  qos_rate_for desc w
    ~freq_mhz:(Opp.max_freq c.Platform_desc.opp)
    ~effective_cores:(float_of_int c.Platform_desc.cores)

let min_qos_rate_for desc w =
  let host = Platform_desc.host desc in
  let c = Platform_desc.cluster desc host in
  qos_rate_for desc w
    ~freq_mhz:(Opp.min_freq c.Platform_desc.opp)
    ~effective_cores:1.
