(** Runtime MIMO tracking controller with gain scheduling.

    This is the low-level "leaf controller" of the SPECTR hierarchy
    (Fig. 9): an LQG regulator executing every control period, exposing
    exactly the two hooks the supervisory controller drives —
    {!switch_gains} (gain scheduling) and {!set_reference} (reference
    regulation).

    The controller operates internally on {e normalized} signals: each
    physical input/output channel carries an [offset]/[scale] pair (from
    the identification experiment's operating point) plus saturation
    limits for actuators.  Actuator saturation is handled with
    conditional-integration anti-windup: integrators freeze on the
    saturated channels. *)

type channel = {
  name : string;
  offset : float;  (** Operating-point value subtracted before control. *)
  scale : float;  (** Normalization divisor (≠ 0). *)
  min : float;  (** Physical lower saturation bound. *)
  max : float;  (** Physical upper saturation bound. *)
}

val channel :
  ?offset:float -> ?scale:float -> ?min:float -> ?max:float -> string -> channel
(** Channel with defaults: offset 0, scale 1, unbounded limits.  Raises
    [Invalid_argument] when [scale = 0] or [min > max]. *)

type t
(** Mutable controller instance. *)

val create :
  gains:Lqg.gains list ->
  initial:string ->
  inputs:channel array ->
  outputs:channel array ->
  refs:float array ->
  unit ->
  t
(** [create ~gains ~initial ~inputs ~outputs ~refs ()] builds a
    controller.  [gains] are the predesigned gain sets (§3.2: "computing
    control parameters for different policies offline"); [initial]
    selects the starting mode by label.  [inputs] describe the m actuator
    channels, [outputs] the p sensor channels, [refs] the initial
    physical reference values (length p).  Each integrator state is
    bounded to ±20 normalized units — the anti-windup mechanism: during
    an infeasible phase integrators wind to the clamp, sustaining a
    maximal command, and unwind in a bounded number of periods
    afterwards.

    Raises [Invalid_argument] when labels are duplicated, [initial] is
    unknown, any gain set disagrees on (m, p, n), array lengths are
    inconsistent. *)

val step : t -> measured:float array -> float array
(** One control period: consume the physical measurements (length p) and
    produce the physical actuator commands (length m), saturated to the
    channel limits.  Mirrors the 50 ms daemon invocation of §5. *)

val step_into : t -> measured:float array -> dst:float array -> unit
(** {!step} into a caller-owned command buffer (length m) — bit-identical
    commands and controller-state evolution, but every intermediate of
    the control law lands in scratch preallocated at {!create}, so a
    steady-state invocation allocates nothing.  [dst] must not alias
    [measured]. *)

val switch_gains : t -> string -> unit
(** Gain scheduling: point the controller at a different stored gain set.
    Controller state (estimate and integrators) is preserved, so the
    switch is bumpless — "changing the coefficient arrays at runtime
    takes effect immediately" (§5.3): the integrators are re-expressed
    under the new gains by a p×p least-squares solve in scratch
    preallocated at {!create}, so a switch allocates nothing.  Raises
    [Invalid_argument] on an unknown label. *)

val available_gains : t -> string list

val set_reference : t -> index:int -> float -> unit
(** Reference regulation: update one physical reference value (e.g. the
    supervisor lowering a cluster's power budget). *)

val reference : t -> index:int -> float

val reset : t -> unit
(** Zero the estimator state and integrators. *)

val last_innovation_norm : t -> float
(** ‖y − C·x̂‖₂ of the last step's Kalman measurement update, in
    normalized output units — how badly the last measurement surprised
    the identified model.  A persistently large residual means the plant
    no longer matches the model (dead sensor, dead cluster, latched
    actuator); the FDIR layer ([Spectr.Fdir]) watches this.  0 before
    the first step and after {!reset}. *)

(** {1 Checkpoint/restore}

    The controller's full mutable state — active gain set, physical
    references, state estimate, integrators, previous normalized command
    and last physical command.  Channel descriptions and the gain sets
    themselves are {e not} saved: restore into a controller built by the
    same design flow.  A restored controller's subsequent [step]s are
    bit-identical to the saving instance's. *)

type saved = private {
  mutable active : Lqg.gains;
  refs : float array;
  xhat : Spectr_linalg.Matrix.t;  (** n x 1 predicted state *)
  z : Spectr_linalg.Matrix.t;  (** p x 1 integrator *)
  u_prev : Spectr_linalg.Matrix.t;  (** m x 1 normalized previous command *)
  last : float array;  (** last physical command, valid once [last_valid] *)
  mutable last_valid : bool;
}
(** The controller's state; read-only outside this module. *)

val saved : t -> saved
(** A copy of [t]'s state, detached from it. *)

val copy : t -> saved -> restore:bool -> unit
(** [copy t s ~restore] copies [t]'s state into [s], or [s] into [t]
    when [restore], in place.  Raises [Invalid_argument] when a
    dimension disagrees, and on a restore whose gain label is unknown
    to this controller (a checkpoint from a different subsystem). *)
