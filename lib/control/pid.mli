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
val step : t -> measured:float -> float
(** One control period; returns the saturated command. *)

val set_reference : t -> float -> unit

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
