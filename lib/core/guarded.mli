(** Graceful-degradation layer: sensor sanity filtering, actuation
    clamping and a sensor/actuator watchdog.

    The synthesized supervisor guarantees safety {e given truthful
    measurements and obedient actuators}.  Under the fault classes of
    {!Spectr_platform.Faults} neither holds, so a guarded manager routes
    every measurement through {!filter} and reports every actuation
    readback through {!note_actuation}.  The defense ladder:

    + {e sanity filter} — a sample that is non-finite, outside its
      plausibility range, exactly frozen for several periods (real
      sensors are noisy; bit-identical streaks mean a stuck sensor), or
      an implausible jump is replaced by the last healthy value.  A
      genuine level shift is distinguished from a spike by persistence:
      after [suspect_limit] off-trend samples that agree with each other
      (within [max_step]) the new level is accepted — scattered spikes
      disagree with the genuine readings between them, so a spike is
      never adopted as the new level.
    + {e actuation clamping} — non-finite controller outputs never reach
      the platform (see {!Manager.apply_cluster}).
    + {e watchdog} — [trip_count] consecutive periods of sensor loss or
      actuator disobedience degrade the manager to a conservative
      open-loop fallback (minimum-power OPP, one core per cluster,
      budgets pinned); [recover_count] consecutive healthy periods
      restore closed-loop control.  The three streaks are counters of a
      {!Persistence} bank, the primitive {!Fdir} runs on too.

    The filter never emits a non-finite value. *)

type channel_thresholds = {
  lo : float;  (** Smallest plausible reading. *)
  hi : float;  (** Largest plausible reading. *)
  max_step : float;  (** Largest plausible change per sample. *)
  stuck_count : int;
      (** Consecutive bit-identical samples that mean "stuck sensor". *)
  suspect_limit : int;
      (** Off-trend samples after which a level shift is accepted. *)
}

type thresholds = {
  qos : channel_thresholds;
  power : channel_thresholds;  (** Shared by every cluster power sensor. *)
  trip_count : int;  (** Consecutive unhealthy periods before degrading. *)
  recover_count : int;  (** Consecutive healthy periods before resuming. *)
}

val thresholds : thresholds
(** The constants every guard runs with, tuned for the x264-class
    scenarios: QoS plausible in [0.2, 400] HB/s with steps up to 45,
    power in [0.02, 15] W with steps up to 3 W; 8-sample stuck
    detection, 4-sample spike tolerance; trip after 6 periods (300 ms
    at the 50 ms loop), recover after 10. *)

type t

val create : clusters:int -> unit -> t
(** [clusters] is the number of per-cluster power channels the guard
    tracks — one per platform cluster, in description order (2 on
    exynos5422).  Raises [Invalid_argument] when < 1. *)

val clusters : t -> int

(** {1 Per-period protocol} *)

type filtered = { mutable qos : float  (** Sanitized QoS. *) }
(** A record of floats only, so OCaml stores it flat and {!filter}
    rewrites it without boxing. *)

val filter : t -> now:float -> qos:float -> powers:float array -> filtered
(** Sanitize one observation (QoS plus one power reading per cluster)
    and advance the sensor side of the watchdog.  The returned QoS and
    every entry of {!powers} are finite.  The result is a guard-owned
    buffer overwritten by the next call — read it before then.
    Allocates nothing.  A period in which any channel needed
    substitution counts in {!substituted_samples}.  Raises
    [Invalid_argument] when [powers] does not have exactly {!clusters}
    entries. *)

val powers : t -> float array
(** The per-cluster powers the last {!filter} sanitized, description
    order: a guard-owned buffer overwritten by the next call. *)

val note_actuation : t -> now:float -> ok:bool -> unit
(** Report whether one cluster's quantized frequency and core count read
    back as commanded.  The readbacks stamped with the same [now] form
    one control period, disobedient if any of them mismatched;
    [trip_count] disobedient periods in a row trip the watchdog exactly
    like sensor loss, whatever the number of clusters. *)

(** {1 State and metrics} *)

val degraded : t -> bool
(** In the open-loop fallback? The manager must pin minimum-power
    actuation and freeze its controllers while this holds. *)

val substituted_samples : t -> int
(** Samples replaced by the sanity filter so far. *)

val total_samples : t -> int

val degradation_spans : t -> (float * float option) list
(** Completed and ongoing degradations, oldest first:
    [(entered, exited)] with [exited = None] while still degraded. *)

val recovery_times : t -> float list
(** Durations of the completed degradations, oldest first — the
    recovery-time metric of the robustness bench. *)

val fallback_ticks : t -> int
(** Cumulative control periods spent in open-loop fallback.  Also
    exported as the [guard.fallback_ticks] obs gauge, with per-span tick
    counts in the [guard.fallback_span_ticks] histogram (observed as
    each span closes) — [guard.trips] counts fallbacks, this measures
    how long each one lasted. *)

(** {1 Channel masking (reconfiguration support)}

    After the reconfiguration engine removes a dead cluster from the
    supervised plant, that cluster's power sensor keeps reading 0 —
    which would otherwise trip the watchdog forever.  Masking a channel
    substitutes 0.0 and always counts it healthy; unmasking resets the
    channel's streak state so stale evidence cannot trip on the first
    live reading. *)

val set_power_masked : t -> cluster:int -> bool -> unit

(** {1 Checkpoint/restore}

    A snapshot is an independent, plain-data (safe to [Marshal]) copy of
    the guard's whole mutable state — filter memory, watchdog counters,
    degradation flag and span history — but not of its thresholds.  A
    restored guard continues bit-identically to the snapshotted one. *)

type snapshot

val snapshot : t -> snapshot

val restore : t -> snapshot -> unit
(** Raises [Invalid_argument] when the snapshot's power-channel count
    does not match {!clusters}. *)
