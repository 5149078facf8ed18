(** Scriptable fault injection for the simulated SoC.

    SPECTR's robustness claim — the synthesized supervisor keeps the
    system inside its safe envelope under disturbances the low-level
    controllers cannot anticipate — is only meaningful if something
    actually breaks.  This module models the runtime fault classes the
    related work (ControlPULP's PCS fault handling, the online-adaptive
    RM literature) treats as first-class events:

    - {e sensor faults}: a power or QoS sensor that drops to zero, gets
      stuck repeating its last pre-fault reading, or emits bursts of
      outlier spikes;
    - {e actuator faults}: a DVFS driver that silently ignores
      {!Soc.set_frequency}, or core gating requests that are refused;
    - {e heartbeat stall}: the QoS monitor stops receiving heartbeats
      while the application itself keeps running.

    A schedule is a list of {!injection}s, each active on a half-open
    time window [[start_s, stop_s)].  The schedule is attached to a
    {!Soc.t}; the SoC consults it inside its sensor and actuator paths,
    so resource managers stay completely oblivious — they just see bad
    data or ineffective commands, exactly as on real hardware.

    Fault injection is {e off by default} and side-effect free when
    inactive: spike noise draws from the schedule's own PRNG (never the
    SoC's), so a run with an empty — or never-active — schedule is
    bit-identical to a run with no schedule at all. *)

type sensor = Power | Power_cluster of int | Qos | Temp
(** Which sensor class a sensor fault hits.  [Power] is every cluster's
    power sensor at once (the classic correlated failure of a shared
    sense rail); [Power_cluster i] is cluster [i]'s sensor alone, so
    sensor-lie and dropout schedules compose on any cluster count.
    [Temp] is the die-temperature sensor. *)

type kind =
  | Dropout of sensor  (** The sensor reads 0 (dead line). *)
  | Stuck_at_last of sensor
      (** The sensor repeats its last pre-fault reading. *)
  | Spike_burst of sensor * float
      (** Outlier bursts: each sample is multiplied by the given factor
          with probability 0.3. *)
  | Dvfs_stuck  (** {!Soc.set_frequency} is silently ignored. *)
  | Gating_refused  (** {!Soc.set_active_cores} is silently ignored. *)
  | Heartbeat_stall
      (** The QoS monitor reports no progress while the app still runs
          (the {!Soc} zeroes the heartbeat-rate sensor; scenario drivers
          additionally stop delivering beats to their monitor). *)
  | Cluster_dead of int
      (** {e Permanent}: the cluster stops executing — zero capacity,
          zero power draw, zero per-core IPS; actuation requests against
          it are ignored.  Onset-only ([stop_s] must be [infinity]). *)
  | Sensor_dead of sensor
      (** {e Permanent}: the sensor reads 0 forever (a dead line that
          never heals, unlike the transient {!Dropout}).  Onset-only. *)
  | Dvfs_stuck_permanent
      (** {e Permanent}: {!Soc.set_frequency} is ignored forever — a
          latched DVFS rail, unlike the transient {!Dvfs_stuck}.
          Onset-only. *)

val is_permanent : kind -> bool
(** Permanent kinds never clear: their injection windows are onset-only
    ([stop_s = infinity]) and recovery requires reconfiguration (FDIR),
    not waiting. *)

type injection = { fault : kind; start_s : float; stop_s : float }

val injection : kind -> start_s:float -> stop_s:float -> injection
(** Convenience constructor.  Raises [Invalid_argument] with a precise
    message when the onset is negative or non-finite, the window has a
    non-positive duration ([stop_s <= start_s] or non-finite), or a
    {!Spike_burst} magnitude is not finite and positive.  Permanent
    kinds ({!is_permanent}) invert the window rule: they require
    [stop_s = infinity] and reject finite stops.  {!create} applies the
    same validation to every element, so a schedule that was constructed
    successfully never silently misapplies. *)

val permanent : kind -> start_s:float -> injection
(** [permanent k ~start_s] = [injection k ~start_s ~stop_s:infinity] —
    the onset-only constructor for permanent kinds. *)

type t

val create : ?seed:int64 -> injection list -> t
(** A fault schedule.  [seed] feeds the spike-noise PRNG only (default
    [0xFA17L]); all other fault transforms are deterministic. *)

val injections : t -> injection list

(** {1 The active state}

    What is active is evaluated once per tick, when the SoC's clock
    moves ({!advance}); every query below and the sensor transforms
    read the state it left, so the tick path boxes no time and builds
    no closure. *)

type clock = { mutable now : float }
(** Simulated seconds in a flat record (an all-float record stores its
    field unboxed): the SoC keeps its time in one and hands it to
    {!advance} without boxing a float. *)

val advance : t -> clock -> unit
(** Evaluate every window at [clock.now]: the active count, the
    actuator and heartbeat flags, the dead-cluster mask and which
    injections the sensor transforms apply.  {!Soc} calls it whenever
    its clock advances and when the schedule is attached. *)

val active_count : t -> int
(** Number of injections active at the last {!advance} (the [faults]
    trace column). *)

val dvfs_stuck : t -> bool
(** A transient {!Dvfs_stuck} window or a latched
    {!Dvfs_stuck_permanent} is active. *)

val gating_refused : t -> bool
val heartbeat_stalled : t -> bool

val cluster_dead : t -> int -> bool
(** Is this cluster index permanently dead?  [false] outside [0, 16). *)

val any_cluster_dead : t -> bool
(** Is any cluster dead?  The SoC's physics skips the dead-cluster mask
    while this is [false]. *)

(** {1 Sensor transforms} *)

val apply_sensors : t -> float array -> k:int -> unit
(** Corrupt a [k]-cluster SoC's would-be sensor readings in place:
    [sens.(0 .. k-1)] the cluster powers, [sens.(k)] the QoS
    (heartbeat-rate) channel, [sens.(k+1)] the die temperature.  Each
    channel is one walk over the active injections, in the order QoS,
    powers from cluster [k-1] down to 0, temperature: a spike burst
    multiplies by its factor with probability 0.3, drawn from the
    schedule's own PRNG in schedule order; a stuck-at fault repeats the
    channel's last healthy reading; a dropout or dead sensor reads 0;
    an active {!Heartbeat_stall} zeroes the QoS channel.  A plain
    [Power] fault hits every cluster, [Power_cluster i] cluster [i]
    only.  Raises [Invalid_argument] unless [1 <= k <= 16] and [sens]
    holds [k + 2] readings. *)

val shift : injection list -> by:float -> injection list
(** Shift every window [by] seconds (used to turn phase-relative
    schedules into absolute ones). *)

(** {1 Serialization}

    Stable textual forms used by the chaos-engine reproducer artifacts
    (see {!Spectr_chaos.Artifact}): kinds as e.g. ["dropout:power"],
    ["stuck:power2"] (cluster-2 power channel), ["spike:qos:5"],
    ["dvfs-stuck"], ["cluster-dead:1"], ["sensor-dead:power0"],
    ["dvfs-stuck-perm"]; injections as ["KIND@START/STOP"]
    with times printed at full precision (permanent kinds print and
    parse their stop as ["inf"]), so
    [injection_of_string (injection_to_string i) = i] for every valid
    injection. *)

val kind_to_string : kind -> string

val kind_of_string : string -> kind
(** Raises [Invalid_argument] on an unparseable or invalid kind. *)

val injection_to_string : injection -> string

val injection_of_string : string -> injection
(** Raises [Invalid_argument] on an unparseable string or an invalid
    window (same validation as {!injection}). *)
