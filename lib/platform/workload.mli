(** Workload models: how an application's throughput responds to the
    resources it is given.

    An application is characterized by a small set of parameters with
    direct microarchitectural meaning:

    - [parallel_fraction] — the Amdahl fraction that scales with core
      count;
    - [freq_scaling] — the per-core speedup obtained by sweeping a
      cluster's full DVFS range (captures memory-boundedness: a
      memory-bound code gains little from frequency because stall cycles
      scale with clock);
    - [base_ipc_big] — instructions per cycle on a Big core at the 1 GHz
      reference, compute-bound component;
    - [instructions_per_heartbeat] — work per QoS unit (frame for x264,
      heartbeat otherwise), so QoS rate = IPS / this;
    - [phases] — piecewise-constant behaviour changes over execution
      (canneal's serialized input-processing phase, for instance).

    The model derives a CPI law CPI(f) = a + b·f whose coefficients
    reproduce [freq_scaling] exactly over the cluster's frequency range
    (see {!Perf_model}). *)

type phase = {
  duration_s : float;  (** Phase length; the last phase repeats forever. *)
  parallel_fraction : float;
  demand_scale : float;
      (** Multiplier on instructions per heartbeat during the phase
          (frame-complexity variation). *)
}

type t = private {
  name : string;
  parallel_fraction : float;  (** In [0,1]. *)
  freq_scaling : float;  (** Per-core speedup over the DVFS range, > 1. *)
  base_ipc_big : float;  (** > 0. *)
  little_ipc_ratio : float;
      (** IPC of a Little core relative to a Big core (in-order vs
          out-of-order); 0.45 for every workload. *)
  instructions_per_heartbeat : float;
  complexity_wobble : float;
      (** Relative amplitude of slow sinusoidal variation in per-heartbeat
          work (e.g. scene complexity), ≥ 0. *)
  phases : phase list;
}

val create :
  ?complexity_wobble:float ->
  ?phases:phase list ->
  name:string ->
  parallel_fraction:float ->
  freq_scaling:float ->
  base_ipc_big:float ->
  instructions_per_heartbeat:float ->
  unit ->
  t
(** Raises [Invalid_argument] on out-of-range parameters. *)

val amdahl_speedup : parallel_fraction:float -> cores:float -> float
(** 1 / ((1−p) + p/n).  [cores] may be fractional (a core partially
    stolen by background work).  Raises when [cores <= 0]. *)
