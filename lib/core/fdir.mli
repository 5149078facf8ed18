(** Fault detection and isolation (the "FDI" of FDIR).

    Classifies runtime faults as transient-vs-permanent and names the
    failed channel, from sensor-visible evidence only: exact-zero
    streaks on power/QoS/IPS channels, actuation readback mismatches,
    and Kalman innovation residuals ({!Mimo.last_innovation_norm}) as a
    corroborating model-consistency monitor.  One {!Persistence} bank —
    the counter primitive {!Guarded}'s watchdog also runs on — holds a
    counter per evidence channel and turns its streak into a two-stage
    verdict:

    - a streak of [transient_ticks] consecutive bad ticks yields a
      {e transient} verdict — logged and counted, no action (the guarded
      layer's clamps and fallback already cover transients);
    - a streak of [permanent_ticks] latches a {e permanent} verdict and
      emits a {!finding} for the reconfiguration engine
      ({!Spectr_manager.make_reconfigurable}).

    Every verdict increments an [fdir.*] counter and appends a
    [Decision_log.Fdir] entry when observability is enabled; a channel's
    label is formatted only then.  The detector is deterministic,
    allocation-free on the tick path ({!observe}, {!note_actuation} and
    {!note_innovation} allocate nothing until a finding latches), and
    never consults the fault schedule or any other ground truth. *)

type finding =
  | Cluster_down of int
      (** Cluster's power sensor {e and} its execution witness (IPS
          aggregate; heartbeat rate for the host) are permanently zero:
          the cluster is dead.  [Cluster_down host] is unrecoverable —
          reconfiguration falls back to open loop. *)
  | Power_sensor_down of int
      (** Power sensor permanently zero while the cluster demonstrably
          still executes.  The cluster's power is unobservable, so the
          safe reconfiguration still removes it from the supervised
          plant and pins it to its floor OPP. *)
  | Qos_sensor_down
      (** Heartbeat rate permanently zero while the host cluster still
          draws power.  The supervisor is blind on its primary objective
          — reconfiguration falls back to open loop. *)
  | Dvfs_latched of int
      (** Actuation readback shows the cluster's DVFS rail permanently
          ignoring requests: the plant still runs, pinned wherever the
          rail latched.  Reconfiguration re-synthesizes on a
          {!Platform_desc.Pin_opp}-degraded description. *)

val finding_channel : finding -> string
(** Stable channel label ("power1", "cluster2", "qos", "dvfs0") used in
    decision-log entries and bench tables. *)

type t

val create : k:int -> host:int -> unit -> t
(** A verdict turns transient after 6 consecutive ticks of evidence
    (0.3 s at the 50 ms period) and permanent after 60 (3.0 s, the
    detection lag quoted in EXPERIMENTS.md); an innovation-residual norm
    above 4.0 (normalized output units) counts as an anomaly.  Raises
    [Invalid_argument] unless [k >= 1] and [0 <= host < k]. *)

val observe : t -> qos:float -> powers:float array -> ips:float array -> unit
(** Feed one tick of raw (pre-guard) sensor evidence: the heartbeat
    rate, the [k] per-cluster power readings, and the [k] per-cluster
    IPS aggregates ({!Soc.ips_totals}; the host entry is 0 by
    convention, which is why the host's execution witness is [qos]). *)

val note_actuation : t -> cluster:int -> ok:bool -> unit
(** Feed one actuation readback comparison (requested OPP applied?). *)

val note_innovation : t -> cluster:int -> norm:float -> unit
(** Feed one controller's innovation-residual norm for this tick. *)

val poll : t -> finding list
(** Newly latched permanent findings since the last poll, oldest first.
    Each finding is emitted exactly once; permanent verdicts never
    un-latch. *)

val residual_flagged : t -> cluster:int -> bool
(** Has the innovation-residual monitor flagged this cluster (transient
    or latched)?  Corroboration for tests and diagnostics. *)

(** {1 Checkpoint/restore}

    The detector's counters and pending findings. *)

type saved

val saved : t -> saved
(** A copy of [t]'s state, detached from it. *)

val copy : t -> saved -> restore:bool -> unit
(** [copy t s ~restore] copies [t]'s state into [s], or [s] into [t]
    when [restore], in place.  Raises [Invalid_argument] on a dimension
    mismatch. *)
