(** Model validation: fit metrics and residual-whiteness analysis.

    Implements the cross-validation methodology of §5.2: after estimating
    a model, simulate it on held-out data, compute the fit, and check that
    the one-step residual is white — "if there is no correlation between
    the residual and itself or any inputs, the model is accurate enough".
    The residual autocorrelation traces against 99 % confidence bands are
    exactly what Figure 15 plots. *)

type channel_report = {
  name : string;
  fit_percent : float;  (** Free-simulation NRMSE fit (Figure 5). *)
  r_squared : float;  (** One-step R² — the §6 Step-2 gate (≥ 0.8). *)
  rmse : float;
  residual_autocorr : (int * float) array;
      (** Lag ↦ residual autocorrelation, lags −20..20. *)
  confidence99 : float;  (** Half-width of the 99 % whiteness band. *)
  violations : int;
      (** Number of nonzero lags whose autocorrelation leaves the band. *)
  max_excursion : float;
      (** Largest |autocorrelation| − confidence over nonzero lags
          (≤ 0 means the trace stays inside the band). *)
}

type report = {
  channels : channel_report array;
  simulated : float array array;  (** Free-simulation trace (per step). *)
  identifiable : bool;  (** All channels reach R² ≥ 0.8. *)
}

val validate :
  ?output_names:string array ->
  model:Arx.model ->
  Dataset.t ->
  report
(** [validate ~model data] runs free simulation + residual analysis on
    [data] (normally the held-out validation split).  The residual
    autocorrelation covers lags −20..20, as the paper's Figure 15
    plots (fewer when [data] is shorter). *)

val pp_report : Format.formatter -> report -> unit
