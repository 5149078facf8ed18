(** The simulated many-core SoC, driven by a {!Platform_desc.t}.

    A platform is a set of named core clusters sharing memory; one of
    them (the {e host} cluster) runs the pinned QoS application's
    threads, the others absorb background work, mirroring the
    experimental setup of Figure 10.  The default description is
    {!Platform_desc.exynos5422} — the paper's ODROID-XU3 with its
    out-of-order Big (host) and in-order Little clusters — on which this
    module is bit-identical to the pre-description 2-cluster simulator.
    Actuators and sensors match the hardware: per-cluster DVFS and
    active-core count as control inputs, per-cluster power sensors and a
    Heartbeats QoS monitor as measured outputs, plus per-core PMU (IPS)
    readings and per-core idle-cycle injection for the large-controller
    experiments of Figures 4/5/15.

    Clusters are addressed by their description index ([0 ..
    num_clusters-1], e.g. 0 = big and 1 = little on exynos5422); cores
    by their global index ([Platform_desc.core_offset] gives each
    cluster's first core).

    The simulator advances in discrete steps ({!step_into}/{!step}); all
    noise comes from an explicit seed, so runs are reproducible.  The
    noise-free plant — workload phase, capacity, background placement,
    QoS throughput and per-cluster power — is one function that
    {!step_into} and the ground-truth accessor {!ground_truth} share, so
    with every noise σ at 0 the observation equals the ground truth bit
    for bit.  The steady-state tick path is allocation-free: {!step_into}
    writes a caller-owned {!observation} and the SoC-owned per-cluster
    arrays ({!sensor_powers}, {!ips_totals}) in place (DESIGN.md §13). *)

type config = {
  seed : int64;
  power_noise : float;  (** Relative σ of the power sensors (default 0.015). *)
  qos_noise : float;  (** Relative σ of heartbeat-rate measurement (0.02). *)
  ips_noise : float;  (** Relative σ of the PMU IPS readings (0.05). *)
  temp_noise : float;
      (** Relative σ of the die-temperature sensor (0.01 — the value that
          was previously hard-coded in the step function). *)
  background_task_util : float;
      (** Core-fraction demanded by each background task (0.6). *)
  ambient_c : float;  (** Ambient temperature (30 °C). *)
  thermal_resistance : float;
      (** Junction-to-ambient thermal resistance, °C per watt (8):
          5.4 W sustained drives the die toward ≈ 73 °C. *)
  thermal_tau : float;  (** First-order thermal time constant, s (3). *)
}

val default_config : config
(** Exynos5422 noise and thermal parameters. *)

val config_of : Platform_desc.t -> config
(** [default_config] with the description's thermal triple spliced in —
    the right base when creating a SoC on a non-default platform
    ([config_of Platform_desc.exynos5422 = default_config]). *)

type observation = {
  mutable time : float;  (** Simulated seconds since creation. *)
  mutable chip_power : float;  (** Sum of all cluster power sensors. *)
  mutable qos_rate : float;
      (** Noisy heartbeat rate of the QoS app (HB/s or FPS). *)
  mutable temperature_c : float;  (** Noisy die-temperature sensor (°C). *)
}
(** All fields are mutable floats so the record is flat and {!step_into}
    fills it without allocating.  Per-cluster readings live in the
    SoC-owned {!sensor_powers}/{!ips_totals} arrays (an array field here
    would make the record a mixed block and box every float store);
    per-core PMU readings are pull-based via {!per_core_ips}, whose
    noise draws the hot path skips and replays on demand. *)

val make_observation : unit -> observation
(** A zeroed observation buffer for {!step_into}. *)

type t

val create : ?config:config -> ?platform:Platform_desc.t -> qos:Workload.t -> unit -> t
(** [platform] defaults to {!Platform_desc.exynos5422}.  When [config]
    is omitted it defaults to [config_of platform]; an explicit [config]
    wins entirely (including its thermal parameters). *)

val platform : t -> Platform_desc.t
val num_clusters : t -> int
val host_cluster : t -> int
(** Index of the cluster hosting the QoS application. *)

val opp_table : t -> int -> Opp.t
(** DVFS table of the given cluster (for command sanitization and
    readback checks).  Raises [Invalid_argument] on a bad index. *)

val cluster_cores : t -> int -> int
(** Physical core count of the given cluster. *)

(** {1 Actuators (control inputs)} *)

val set_frequency : t -> int -> float -> int
(** [set_frequency soc cluster f_mhz] requests a cluster frequency in
    MHz; the value is quantized to the nearest OPP of that cluster's
    table, which is returned.  Under an active {!Faults.Dvfs_stuck}
    injection the request is ignored and the {e current} frequency is
    returned — callers must treat the return value as the ground truth
    of what was applied. *)

val frequency : t -> int -> int

val set_opp : t -> int -> int -> int
(** [set_opp soc cluster f] is {!set_frequency} for a request that is
    already one of the cluster's OPPs ([f] MHz, say from
    {!Opp.request_at}), with no float crossing the call.  An applied
    request for a frequency that is not an OPP of the cluster raises
    [Invalid_argument]. *)

val set_active_cores : t -> int -> int -> unit
(** Number of un-gated cores, clamped to [1, cores-of-cluster]. *)

val active_cores : t -> int -> int

val set_idle_fraction : t -> core:int -> float -> unit
(** Per-core idle-cycle injection, core ∈ [0, total_cores), fraction
    clamped to [0, 0.9] — the fine-grained actuator of the 10×10 system
    (Fig. 4). *)

val idle_fraction : t -> core:int -> float

val set_background_tasks : t -> int -> unit
(** Number of single-threaded background tasks currently running
    (placed by the HMP scheduler: non-host clusters in index order,
    spilling onto the host where they steal capacity from the QoS
    app). *)

val background_tasks : t -> int

(** {1 Fault injection} *)

val set_faults : t -> Faults.t option -> unit
(** Attach (or clear) a fault schedule.  While a {!Faults.Dvfs_stuck}
    ([Gating_refused]) injection is active, {!set_frequency}
    ({!set_active_cores}) is silently ignored — {!set_frequency} returns
    the unchanged current frequency, exactly what a readback would show.
    Sensor faults corrupt the {!observation} fields of {!step_into}.
    [None] (the default) and a schedule with no active window are
    bit-identical: fault machinery never touches the SoC's noise
    stream.  The schedule's active state ({!Faults.advance}) is
    evaluated when it is attached and each time the clock advances, and
    the actuators, the physics and the sensor path read those flags: no
    fault query boxes the time or builds a closure. *)

val faults : t -> Faults.t option

(** {1 Stepping} *)

val step_into : t -> dt:float -> observation -> unit
(** Advance simulated time by [dt] seconds (one controller period) and
    write the sensor readings for that period into the given buffer and
    the SoC-owned per-cluster arrays.  Allocation-free in steady state
    (no faults attached, observability disabled).  Raises on
    [dt <= 0]. *)

val step : t -> dt:float -> observation
(** {!step_into} into a freshly allocated observation. *)

val time : t -> float

val sensor_powers : t -> float array
(** Per-cluster noisy power-sensor readings of the last step, indexed by
    cluster.  The returned array is owned by the SoC and overwritten on
    the next step — read, don't keep or mutate. *)

val ips_totals : t -> float array
(** Per-cluster aggregate noisy IPS of the last step, indexed by
    cluster.  The host cluster's entry is 0 — its per-core draws are
    skipped on the hot path; {!per_core_ips} replays them.
    Same ownership rules as {!sensor_powers}. *)

val per_core_ips : t -> float array
(** Per-core PMU (IPS) readings as of the last step, [total_cores]
    entries in global core order.  Fresh array per call; the draws the
    hot path skipped are replayed from the saved generator state. *)

val ground_truth : t -> float array -> unit
(** [ground_truth soc dst] writes the noise-free total power to
    [dst.(0)], summed over clusters in index order as the power sensors
    are, and the noise-free QoS rate to [dst.(1)], both at the current
    time and actuator settings, from one pass of the physics
    {!step_into} runs, without advancing time.  For tests and
    ground-truth comparisons: the managers must use {!observation}s.
    Allocation-free. *)

val temperature : t -> float
(** Noise-free die temperature (°C).  A first-order RC response to chip
    power: the physical variable behind the paper's "thermal emergency"
    phases, letting experiments derive the power envelope from
    temperature instead of scripting it. *)
