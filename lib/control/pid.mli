(** Discrete PID controller — the SISO alternative for leaf controllers
    (Fig. 9 allows "various types of Classic Controllers, such as PID or
    state-space").

    Positional form with clamped integrator (anti-windup):

    {v e  = r − y
   I ← clamp(I + e·dt)
   u  = clamp(Kp·e + Ki·I + Kd·(e − e_prev)/dt) v} *)

type config = {
  kp : float;
  ki : float;
  kd : float;
  dt : float;  (** Control period in seconds (> 0). *)
  u_min : float;
  u_max : float;
}

val config :
  ?u_min:float -> ?u_max:float -> kp:float -> ki:float -> kd:float -> dt:float -> unit -> config
(** Raises [Invalid_argument] when [dt <= 0] or [u_min > u_max]. *)

type t

val create : config -> reference:float -> t

type io = {
  mutable reference : float;
  mutable measured : float;
  mutable command : float;  (** Written by {!update}. *)
}
(** The loop's inputs and output, a record of floats only: the caller
    writes [reference] and [measured] and reads [command] in place, so
    no float crosses the call (a float argument or result of a call
    into another module is a box). *)

val io : t -> io
(** The loop's own [io] record, the same one on every call. *)

val update : t -> unit
(** One control period: reads [reference] and [measured] from {!io},
    writes the saturated command to its [command]. *)

val reset : t -> unit

(** {1 Checkpoint/restore}

    The full mutable state of a PID loop apart from its gains (which the
    owner reconstructs): reference, integrator and previous error. *)

type saved

val saved : t -> saved
(** A copy of [t]'s state, detached from it. *)

val copy : t -> saved -> restore:bool -> unit
(** [copy t s ~restore] copies [t]'s state into [s], or [s] into [t]
    when [restore], in place.  The gains are not saved: restore into a
    controller built with the same config. *)
