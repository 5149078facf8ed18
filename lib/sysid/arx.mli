(** Least-squares ARX identification and state-space realization.

    Fits the multi-output ARX model

    {v y(t) = Σᵢ Aᵢ y(t−i) + Σⱼ Bⱼ u(t−j) + e(t),  i ∈ 1..na, j ∈ 1..nb v}

    by (ridge-regularized) linear least squares, and realizes it as the
    non-minimal state-space model with state
    [x(t) = (y(t−1)…y(t−na), u(t−1)…u(t−nb))], which has no feedthrough
    (D = 0) and so plugs directly into {!Spectr_control.Lqg.design}.

    This is the OCaml stand-in for the MATLAB System Identification
    toolbox step of the paper's design flow (§6 Step 5).  The growth of
    the state dimension with the channel counts — n = na·p + nb·m — is
    exactly the scalability obstacle quantified in §2.3 and Figure 6. *)

type model = private {
  na : int;  (** Output-lag order (the paper's "order"). *)
  nb : int;  (** Input-lag order. *)
  theta : Spectr_linalg.Matrix.t;
      (** p × (na·p + nb·m) coefficient matrix [A₁ … A_na B₁ … B_nb]. *)
  num_inputs : int;
  num_outputs : int;
}

type error =
  | Not_enough_data of { need : int; have : int }
  | Bad_order of string
  | Singular_regression
      (** The excitation did not persistently excite the system (e.g. a
          constant input). *)

val pp_error : Format.formatter -> error -> unit

val fit : na:int -> nb:int -> Dataset.t -> (model, error) result
(** [fit ~na ~nb data] estimates the coefficients, with a [1e-8]
    Tikhonov regularization added to the normal equations. *)

val predict_one_step : model -> Dataset.t -> float array array
(** One-step-ahead predictions ŷ(t|t−1) for t ∈ [max na nb, length).
    The result is aligned with the dataset suffix starting at
    [max na nb]; y(t) − ŷ(t|t−1) is the residual whose autocorrelation
    Figure 15 plots ({!Validation.validate}). *)

val simulate : model -> u:float array array -> y0:float array array -> float array array
(** Free simulation: predictions feed back as past outputs, so errors
    compound — the honest accuracy test of Figure 5.  [y0] provides the
    first [max na nb] true outputs for initialization; the result has the
    same length as [u] (the prefix is copied from [y0]). *)

val to_statespace : model -> Spectr_control.Statespace.t
(** The companion-form realization described above (D = 0). *)

val offset_suffix : model -> int
(** [max na nb] — the number of leading samples consumed by
    initialization, i.e. the alignment offset of {!predict_one_step}. *)
