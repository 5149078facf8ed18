(** Discrete algebraic Riccati equation (DARE) solver.

    The DARE

    {v P = Aᵀ P A − Aᵀ P B (R + Bᵀ P B)⁻¹ Bᵀ P A + Q v}

    underlies both LQR gain design and steady-state Kalman filtering
    ({!Spectr_control.Lqr}, {!Spectr_control.Kalman}).  We solve it by
    fixed-point iteration of the Riccati difference equation, which
    converges for stabilizable (A,B) with detectable (A,Q^½) — the regime
    of all controllers in this library (matrices are small: ≤ ~20×20). *)

type error =
  | Dimension_mismatch of string
      (** Shapes of A, B, Q, R are inconsistent. *)
  | Not_converged of { iterations : int; residual : float }
      (** Fixed-point iteration failed to reach tolerance: [iterations]
          Riccati steps were taken ([max_iter + 1] — the cap counts the
          steps after the first), and [residual] is the max-abs change of
          the last one. *)
  | Singular
      (** (R + BᵀPB) became singular during iteration. *)

val pp_error : Format.formatter -> error -> unit

val solve :
  ?max_iter:int ->
  ?tol:float ->
  a:Matrix.t ->
  b:Matrix.t ->
  q:Matrix.t ->
  r:Matrix.t ->
  unit ->
  (Matrix.t, error) result
(** [solve ~a ~b ~q ~r ()] returns the stabilizing solution [P] of the
    DARE.  [q] must be n×n positive semidefinite, [r] m×m positive
    definite, where [a] is n×n and [b] is n×m.  Default [max_iter] is
    10_000 and [tol] (max-abs difference between successive iterates)
    is [1e-10].

    The iteration runs in buffers allocated once per call — a step
    allocates nothing — and its arithmetic is fixed, so a given problem
    always yields the same bits (and the same [Singular] /
    [Not_converged] outcome).  A step reads A and B through lists of
    their nonzero entries, built once per call: A′P, A′PA, A′PB, B′P and
    B′PB sum only over the entries where the A or B factor is nonzero,
    and the correction A′PB·(R + B′PB)⁻¹B′PA skips zero A′PB entries
    as [Matrix.mul_into] does.  Every entry still accumulates its terms
    from 0 in ascending order, so while A, B, A′P and B′P stay finite
    the skipped terms are exact zeros and the bits are those of the
    dense products with [Matrix.mul_into]. *)

val residual : a:Matrix.t -> b:Matrix.t -> q:Matrix.t -> r:Matrix.t -> Matrix.t -> float
(** Max-abs entry of [AᵀPA − P − AᵀPB(R+BᵀPB)⁻¹BᵀPA + Q]; a direct check
    that [P] solves the equation. *)
