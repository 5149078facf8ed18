(** Statistics used by system-identification validation and the
    experimental-evaluation metrics.

    All functions operate on plain [float array] time series.  Empty-input
    behaviour is documented per function; functions that need at least one
    sample raise [Invalid_argument] on an empty array. *)

val mean : float array -> float
(** Arithmetic mean.  Raises [Invalid_argument] on an empty array. *)

val variance : float array -> float
(** Population variance (divides by [n]).  Raises on empty input. *)

val std : float array -> float
(** Population standard deviation. *)

val autocorrelation : float array -> int -> float
(** [autocorrelation x k] is the lag-[k] sample autocorrelation of [x],
    normalized so that lag 0 gives 1.  [k] may be negative (symmetric).
    Returns 0 when the series has zero variance.
    Raises [Invalid_argument] when [|k| >= length x] or [x] is empty. *)

val autocorrelations : float array -> max_lag:int -> (int * float) array
(** Lags [-max_lag .. max_lag] paired with their autocorrelations — the
    series plotted in the paper's Figure 15. *)

val cross_correlation : float array -> float array -> int -> float
(** Lag-[k] sample cross-correlation of two equal-length series,
    normalized by the geometric mean of their variances. *)

val confidence_interval_99 : int -> float
(** [confidence_interval_99 n] is the half-width of the 99 % confidence
    band for the autocorrelation of an [n]-sample white-noise residual,
    i.e. [2.576 / sqrt n] (paper §5.2 uses 99 % ≈ ±3σ bands). *)

val r_squared : actual:float array -> predicted:float array -> float
(** Coefficient of determination R² = 1 − SS_res/SS_tot.  The paper's
    design flow (§6, Step 2) requires R² ≥ 0.8 for a subsystem to be
    considered identifiable.  Raises on length mismatch or empty input;
    returns [nan] when [actual] is constant (a channel that never moves
    is not identified, however well it is predicted), so a gate must
    test [r >= threshold], never [not (r < threshold)]. *)

val fit_percent : actual:float array -> predicted:float array -> float
(** MATLAB-style normalized root mean square fit:
    [100 * (1 - ||actual - predicted|| / ||actual - mean actual||)];
    [nan] when [actual] is constant, like {!r_squared}. *)

val rmse : actual:float array -> predicted:float array -> float
(** Root mean squared error. *)

val percentile : float array -> float -> float
(** [percentile x p] with [p] in [0,100], linear interpolation between
    order statistics.  Raises on empty input or [p] outside range. *)

val steady_state_error :
  reference:float -> measured:float array -> tail:int -> float
(** Average of [reference − measured] over the last [tail] samples,
    expressed as a {e percentage of the reference} — the paper's
    steady-state-error metric of Figure 14 (positive = under the
    reference, negative = exceeding it).  Raises when [tail <= 0]; uses
    the whole series when [tail] exceeds its length.  A zero reference
    yields the raw (unnormalized) error. *)
