(** LQG tracking-controller design (the paper's low-level MIMO
    controllers).

    The design augments the identified plant with one integrator per
    measured output so that constant references are tracked with zero
    steady-state error:

    {v x⁺ = A x + B u                     (plant, D = 0 required)
   z⁺ = z + (r − y)                   (tracking-error integrators)
   u  = −Kx x̂ − Kz z                  (augmented LQR feedback)
   x̂  ← Kalman estimate from (u, y) v}

    The output-priority weights [q_y] are the paper's Tracking Error Cost
    matrix Q — e.g. 30:1 FPS-over-power for the MM-Perf configuration of
    §2.1 — and [r_u] its Control Effort Cost matrix R — e.g. 2:1
    frequency-over-cores of §5.  A complete set of gains for one
    operating mode is a {!gains} value; the supervisor's gain scheduling
    switches between such values at runtime ({!Mimo.switch_gains}). *)

open Spectr_linalg

type gains = private {
  label : string;  (** Mode name, e.g. ["qos"] or ["power"]. *)
  model : Statespace.t;  (** The design model (for the estimator). *)
  kx : Matrix.t;  (** m×n state-feedback gain. *)
  kz : Matrix.t;  (** m×p integrator gain. *)
  l : Matrix.t;  (** n×p Kalman filter gain. *)
  leak : float;
      (** Integrator leak λ ∈ (0, 1]: z⁺ = λz + (r − y).  1 means exact
          integral action; {!design} walks the ladder 1, 0.995, 0.98,
          0.95 and keeps the first leak whose DARE has a stabilizing
          solution and whose augmented closed loop strictly decays
          ({!Statespace.decays}; an integrator direction that no input
          drives fails both at λ = 1). *)
}
(** Private: only {!design} builds a gain set, so every [gains] value's
    augmented state-feedback loop has passed {!Statespace.decays}. *)

type error =
  | Lqr_failed of Lqr.error
  | Kalman_failed of Kalman.error
  | Feedthrough_unsupported
      (** The design requires D = 0 (standard for identified
          computing-system models: actuation takes effect next period). *)
  | Bad_weights of string
  | Not_stabilizing
      (** Every leak of the ladder failed, the last one because its LQR
          closed loop does not decay strictly. *)

val pp_error : Format.formatter -> error -> unit

val design :
  ?q_integrator:float array ->
  label:string ->
  model:Statespace.t ->
  q_y:float array ->
  r_u:float array ->
  unit ->
  (gains, error) result
(** [design ~label ~model ~q_y ~r_u ()] computes one gain set.

    - [q_y]: per-output tracking weights (length p).  The state cost is
      CᵀQyC so that output deviations, not raw states, are penalized.
    - [r_u]: per-input effort weights (length m); all must be > 0.
    - [q_integrator]: per-output integrator weights (default: [q_y]
      scaled by 0.1) — larger values track faster but overshoot more.
    The Kalman design uses process / measurement noise covariances
    0.01·I / 0.1·I, matching the identified models' residual levels. *)
