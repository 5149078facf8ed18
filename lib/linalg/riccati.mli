(** Discrete algebraic Riccati equation (DARE) solver.

    The DARE

    {v P = Aᵀ P A − Aᵀ P B (R + Bᵀ P B)⁻¹ Bᵀ P A + Q v}

    underlies both LQR gain design and steady-state Kalman filtering
    ({!Spectr_control.Lqr}, {!Spectr_control.Kalman}).  We solve it by
    the structure-preserving doubling algorithm (SDA; Chu, Fan & Lin
    2005), whose k-th iterate equals 2ᵏ steps of the Riccati difference
    equation from P = Q, so it converges quadratically where that
    iteration converges linearly: 13–15 doublings per design-time LQR,
    6–7 per Kalman filter (matrices are small: ≤ ~20×20). *)

type error =
  | Dimension_mismatch of string
      (** Shapes of A, B, Q, R are inconsistent. *)
  | Not_converged of { doublings : int; residual : float }
      (** No stabilizing solution was found: the doubling did not settle
          within 64 doublings (2⁶⁴ Riccati steps), its iterate stopped
          being finite, or the limit it settled on misses the residual
          bound.  [residual] is the last iterate's relative residual (see
          {!solve}); NaN when that iterate is not finite.  An
          unstabilizable mode on the unit circle — an integrator that no
          input drives — ends here. *)
  | Singular
      (** R, or some doubling's I + GH, is singular. *)

val pp_error : Format.formatter -> error -> unit

val solve :
  a:Matrix.t -> b:Matrix.t -> q:Matrix.t -> r:Matrix.t -> (Matrix.t, error) result
(** [solve ~a ~b ~q ~r] returns the stabilizing solution [P] of the
    DARE.  [q] must be n×n positive semidefinite, [r] m×m positive
    definite, where [a] is n×n and [b] is n×m.

    From A₀ = A, G₀ = B R⁻¹ Bᵀ, H₀ = Q, each doubling forms
    W = I + G H and

    {v A′ = A W⁻¹ A,   G′ = G + A W⁻¹ G Aᵀ,   H′ = H + Aᵀ H W⁻¹ A v}

    (G′ and H′ symmetrized), until the max-abs entry of H′ − H is at
    most 1e-12 · max(1, max-abs H′).  The result is returned only when
    its relative residual — the max-abs entry of F(P) − P, F the
    right-hand side above, over max(1, max-abs P) — is at most 1e-9;
    otherwise {!Not_converged}.  The arithmetic is fixed, so a given
    problem always yields the same bits and the same outcome. *)
