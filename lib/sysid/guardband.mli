(** Uncertainty guardbands and robust-stability analysis.

    The paper designs its controllers "with a stability focus … We use
    Uncertainty Guardbands of 50 % for QoS and 30 % for power, as in
    [Pothukuchi et al.]" (§5, footnote 7).  A guardband of g on a channel
    means the controller must remain stable when that channel's true gain
    deviates from the identified model by up to ±g.  The two bands are
    fixed at the paper's values. *)

val perturbed_models :
  Spectr_control.Statespace.t -> Spectr_control.Statespace.t list
(** The corner cases of the uncertainty box: each output row of C scaled
    by (1 ± guardband), all sign combinations (2^p models, p = number of
    outputs; output 0 is the QoS channel with a 50 % band and the
    remaining outputs are power channels with a 30 % band). *)

val closed_loop_matrix :
  gains:Spectr_control.Lqg.gains ->
  plant:Spectr_control.Statespace.t ->
  Spectr_linalg.Matrix.t
(** The state matrix of [plant] under the nominal estimator and gains
    of [gains], with the reference at zero.  The state is
    [\[x_p; x̂; z\]]: the plant's, the predicted estimate of the
    nominal model (A, B, C) and the integrators.  With y = C_p x_p and
    the corrected estimate x̂_c = (I − LC) x̂ + L y, the command is
    u = −K_x x̂_c − K_z (z − y); the plant steps by (A_p, B_p), the
    estimate by x̂⁺ = A x̂_c + B u, and the integrators by
    z⁺ = λ z − y, λ the gain set's integrator leak.  A
    (2n + p)-square matrix for an n-state, p-output model. *)

val robustly_stable : Spectr_control.Lqg.gains -> bool
(** Robust Stability Analysis (§2.2, §6 Step 8): for every corner of
    the uncertainty box around the design model ({!perturbed_models}),
    the {!closed_loop_matrix} under [gains] strictly decays
    ({!Spectr_control.Statespace.decays}). *)
