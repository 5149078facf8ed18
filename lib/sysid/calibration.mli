(** Platform calibration from measured sweeps.

    The bridge between real-silicon measurement campaigns and
    {!Spectr_platform.Platform_desc}: a {e sweep} is a table of steady
    operating points — per cluster, per OPP, per active-core count — with
    the measured cluster power and per-core throughput at each point
    (the stress-ng-style campaign of the ARM measurement pipelines this
    format mirrors).  {!fit} recovers the analytic models the simulator
    runs on:

    - power: least squares on the four {!Spectr_platform.Power_model}
      parameters (the model is linear in [cdyn], [leak], [gated],
      [uncore] once voltage/frequency/core features are formed);
    - throughput: the CPI law [IPS(f) = f·1e9 / (a + b·κ·f)] is linear
      in [(a, b)] after inverting ([1/IPS] regressed on [1/(f·1e9)] and
      [κ/1e9], with κ the busy-core contention factor of each point).

    Both fits report R² on the {e measured} scale per cluster; the
    design-flow identifiability discipline (reject, don't average away,
    a bad fit) applies — {!to_platform} refuses clusters whose power fit
    falls below the gate.  {!generate_sweep} produces the same table
    from an existing description, so the round trip
    [generate_sweep |> fit |> to_platform] is the self-test pinning the
    fitter's correctness (R² ≥ 0.95 per cluster in [test_sysid]). *)

open Spectr_platform

type sample = {
  s_cluster : string;  (** Cluster name (groups rows; first-seen order). *)
  s_freq_mhz : int;
  s_volt : float;  (** Supply voltage at this OPP (V). *)
  s_active : int;  (** Active (un-gated) cores at this point. *)
  s_total : int;  (** Physical cores of the cluster. *)
  s_util : float;  (** Dynamic-term utilization in [0, 1]. *)
  s_power_w : float;  (** Measured cluster power (W). *)
  s_core_ips : float;  (** Measured per-core instructions/s. *)
}

val sample_columns : string list
(** CSV header: [cluster,freq_mhz,volt,active_cores,total_cores,
    utilization,power_w,core_ips]. *)

val sweep_to_csv : sample list -> string

val sweep_of_csv : string -> (sample list, string) result
(** Parse a sweep CSV (header required; [#] comments and blank lines
    skipped).  Errors name the offending line. *)

type cluster_fit = {
  fit_cluster : string;
  fit_samples : int;
  fit_power : Power_model.params;
  fit_power_r2 : float;  (** R² of predicted vs. measured power (W). *)
  fit_cpi_a : float;  (** Compute CPI of the fitted law. *)
  fit_cpi_b : float;  (** Memory-stall CPI slope (per GHz, κ = 1). *)
  fit_ips_r2 : float;  (** R² of predicted vs. measured per-core IPS. *)
  fit_opp : Opp.t;  (** DVFS table assembled from the sweep's OPP rows. *)
  fit_cores : int;
}

val fit : sample list -> (cluster_fit list, string) result
(** Per-cluster least squares, clusters in first-appearance order.
    Fails (naming the cluster) on an empty sweep, inconsistent
    core-count/voltage rows, fewer distinct points than model
    parameters, or a degenerate (singular) regression. *)

val to_platform :
  name:string ->
  host:string ->
  thermal:Platform_desc.thermal ->
  cluster_fit list ->
  (Platform_desc.t, string) result
(** Assemble a platform description from fitted clusters: every cluster
    gets its fitted power parameters and DVFS table; non-host clusters
    carry their fitted CPI law as [Absolute].  The host cluster is
    [Host_law] — its QoS throughput is workload-relative by
    construction, so the description derives it per workload (the fitted
    host law is still reported by {!fit} for inspection).  Fails when
    [host] names no fitted cluster or when any cluster's power or IPS R²
    is below 0.95 — a calibration that cannot
    reproduce its own sweep must be rejected, not shipped. *)

val generate_sweep :
  ?seed:int64 ->
  ?noise:float ->
  Platform_desc.t ->
  sample list
(** The measurement campaign a real platform would run, executed against
    the analytic models: for every cluster, OPP and active-core count,
    the model power at full utilization and the per-core IPS under the
    point's contention factor, each perturbed by multiplicative Gaussian
    noise of relative σ [noise] (default 0.01; 0 = exact).  The CPI
    laws being measured are {!Benchmarks.microbench}'s, via
    {!Perf_model.coefficients_for}. *)
