(** The Heartbeats QoS monitor (Hoffmann et al.), as used in §5: "By
    periodically issuing heartbeats, the application informs the system
    about its current performance.  The user provides a performance
    reference value using the Heartbeats API."

    The application side calls {!beat} with the (possibly fractional)
    number of heartbeats completed during a period; the monitor side
    reads the windowed {!rate}. *)

type t

val create : ?window:float -> reference:float -> unit -> t
(** [window] is the averaging horizon in seconds (default 0.5 — ten 50 ms
    controller periods).  Raises [Invalid_argument] when [window <= 0] or
    [reference <= 0]. *)

val beat : t -> now:float -> count:float -> unit
(** Record [count] heartbeats issued at time [now].  Times must be
    non-decreasing. *)

val rate : t -> now:float -> float
(** Heartbeats per second over the trailing window ending at [now];
    0 before any beat arrives. *)

val observe : t -> Soc.observation -> dt:float -> stalled:bool -> unit
(** One controller period in place, the per-tick form of {!beat} and
    {!rate}: unless [stalled], record the period's [obs.qos_rate *. dt]
    heartbeats at [obs.time], then overwrite [obs.qos_rate] with the
    windowed rate at [obs.time].  No float crosses the call boxed. *)

val reference : t -> float
val set_reference : t -> float -> unit
(** The user-updated performance goal (a dynamic reference the
    supervisor may also adjust). *)

val total : t -> float
(** Total heartbeats issued so far. *)
