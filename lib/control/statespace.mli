(** Discrete-time linear state-space models

    {v x(t+1) = A x(t) + B u(t)
   y(t)   = C x(t) + D u(t) v}

    — Equations (1)–(2) of the paper.  These models come from black-box
    system identification ({!Spectr_sysid.Arx}) and are the design input
    to {!Lqr}, {!Kalman} and {!Lqg}. *)

open Spectr_linalg

type t = private {
  a : Matrix.t;  (** n×n state matrix. *)
  b : Matrix.t;  (** n×m input matrix. *)
  c : Matrix.t;  (** p×n output matrix. *)
  d : Matrix.t;  (** p×m feedthrough matrix. *)
}

val create : a:Matrix.t -> b:Matrix.t -> c:Matrix.t -> ?d:Matrix.t -> unit -> t
(** Validates dimensional consistency ([d] defaults to the zero matrix).
    Raises [Invalid_argument] on mismatch. *)

val order : t -> int
(** Number of states n. *)

val num_inputs : t -> int
(** Number of control inputs m. *)

val num_outputs : t -> int
(** Number of measured outputs p. *)

val step : t -> x:Matrix.t -> u:Matrix.t -> Matrix.t * Matrix.t
(** [step sys ~x ~u] is [(x', y)]: the next state and current output.
    [x] is n×1, [u] is m×1. *)

val simulate : t -> u:Matrix.t array -> unit -> Matrix.t array
(** Output sequence for an input sequence (each u m×1), starting at the
    origin. *)

val dc_gain : t -> Matrix.t
(** Steady-state gain [C (I − A)⁻¹ B + D].  Raises [Failure] when
    (I − A) is singular (integrating plant). *)

val is_stable : ?steps:int -> t -> bool
(** Empirical BIBO check: every basis vector's norm is at most 1e3
    after [steps] (default 200) iterations x ← Ax.  Column k of A^steps
    is basis vector k after those iterations; A^steps is formed by
    binary powering (9 products for 200).  A non-finite column norm
    counts as unstable: once an intermediate power overflows, inf · 0
    leaves NaN in entries where the one-vector-at-a-time iteration
    holds inf, and an entry of a power overflows only where that
    iteration's vector for the same column has grown to about 1e308.  With finite powers
    the two round differently, so only a column norm within rounding
    of 1e3 could change the verdict.  Sound for diagnosable growth;
    used by design-flow robustness checks. *)

val operation_count : t -> int
(** Multiply–add operations for one controller invocation (the matrix
    products of Equations (1) and (2)) — the cost model behind the
    paper's Figure 6. *)

val pp : Format.formatter -> t -> unit
