(** Identification datasets: paired input/output records.

    A dataset is what one identification experiment on the platform
    produces: at each control period the applied input vector and the
    measured output vector. *)

type t = private {
  u : float array array;  (** [u.(t)] is the m-vector applied at step t. *)
  y : float array array;  (** [y.(t)] is the p-vector measured at step t. *)
}

val create : u:float array array -> y:float array array -> t
(** Raises [Invalid_argument] when lengths differ, the series is empty,
    or rows are ragged. *)

val length : t -> int
val num_inputs : t -> int
val num_outputs : t -> int

val split : t -> at:float -> t * t
(** [split d ~at:0.7] returns (estimation, validation) partitions — the
    cross-validation split of §5.2.  [at] must be in (0, 1) and both
    halves must be non-empty. *)

val standardize :
  t -> t * (float array * float array) * (float array * float array)
(** Demean each channel and divide it by its standard deviation, floored
    at 1e-6 so that a constant channel is only demeaned.  Returns the
    standardized dataset, the inputs' (means, stds) and the outputs'
    (means, stds): the controller channels carry them back to physical
    units.  Each mean and std is bit for bit [Stats.mean] and
    [Float.max 1e-6 (Stats.std _)] of the channel's column, but all
    channels are summed together row by row, no column is copied out,
    and each standardized row is written once. *)
