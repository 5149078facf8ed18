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

val decays : Matrix.t -> bool
(** Strict stability of a square closed-loop matrix A, the design
    flow's one stability verdict: some power A^k, k = 2^j for j ≤ 16
    formed by squaring, has max row sum at most 1/2, which bounds the
    spectral radius by 2^(−1/k) < 1 − 1e-5.  A mode on the unit circle
    (A = I, a Jordan block at 1), an overflowing power and a NaN entry
    all fail.  The designed loops pass by j = 13.  Raises
    [Invalid_argument] when A is not square. *)

val operation_count : t -> int
(** Multiply–add operations for one controller invocation (the matrix
    products of Equations (1) and (2)) — the cost model behind the
    paper's Figure 6. *)

val pp : Format.formatter -> t -> unit
