(** Common interface for runtime resource managers.

    A manager owns its leaf controllers (and, for SPECTR, the
    supervisor); the {!Scenario} driver invokes {!step} once per
    controller period with the fresh sensor observation, the current QoS
    reference and the current power envelope (both of which may change
    between phases), and the manager applies its actuation decisions to
    the SoC. *)

open Spectr_platform

type checkpoint
(** A manager checkpoint: a variant tag naming the manager kind that
    wrote it plus that manager's saved state, typed (each stateful
    layer's copy of its state, such as {!Supervisor.saved}).  There is
    no byte format: a checkpoint lives in the process that wrote it.
    The first {!persist.save} allocates the saved state; every later
    save by the same variant overwrites it in place and allocates
    nothing.  A restore copies out of it, so a checkpoint shares no
    mutable state with a live manager and can be restored any number
    of times.  Restoring a checkpoint into a manager of a different
    variant raises [Invalid_argument]. *)

val empty_checkpoint : unit -> checkpoint
(** A fresh checkpoint holding nothing: restoring it leaves a manager as
    it is. *)

type persist = {
  save : checkpoint -> unit;
      (** Copy the manager's complete mutable state into the given
          checkpoint, in place (see {!checkpoint}).  Cheap — no I/O,
          no allocation after a checkpoint's first save — safe to call
          every period. *)
  snapshot : unit -> checkpoint;
      (** [save] into a fresh {!empty_checkpoint}. *)
  restore : checkpoint -> unit;
      (** Overwrite the manager's state from a checkpoint.  After
          [restore], stepping continues bit-identically to the
          saving instance — the checkpoint/resume guarantee the chaos
          soak pins.  An empty checkpoint restores nothing.  Raises
          [Invalid_argument] on a variant mismatch or a saved state
          whose shape does not fit the manager. *)
}

type t = {
  name : string;
      (** Display name: ["SPECTR"], ["MM-Pow"], ["MM-Perf"], ["FS"]. *)
  step :
    now:float ->
    qos_ref:float ->
    envelope:float ->
    obs:Soc.observation ->
    Soc.t ->
    unit;
  persist : persist option;
      (** Checkpoint/restore capability, when the manager supports it
          (all shipped managers do).  [None] marks a manager that cannot
          be hot-restarted; the soak runner skips kill/restart cells for
          it. *)
}

val make_persist :
  variant:string ->
  id:'s Type.Id.t ->
  saved:(unit -> 's) ->
  copy:('s -> restore:bool -> unit) ->
  persist
(** The persistence hook of a manager whose complete mutable state has
    the saved form ['s]: [saved ()] returns a detached copy of it, and
    [copy s ~restore] copies the live state into [s], or [s] into the
    live state when [restore], raising [Invalid_argument] when [s] does
    not fit.  The checkpoint carries [s] under [id], the manager
    family's witness, and the tag [variant]; restoring a checkpoint
    with any other tag raises [Invalid_argument]. *)

val platform_variant : Platform_desc.t -> string -> string
(** The checkpoint tag of a manager kind [base] on a platform: [base]
    itself on the reference exynos5422, [base ^ "@" ^] the first 12 hex
    digits of {!Platform_desc.digest} elsewhere.  A tag then fixes the
    saved state's shape, so a save into another platform's checkpoint
    re-allocates and a restore from one raises. *)

val sanitize_cores : max_cores:int -> float array -> at:int -> int
(** The core count a [u.(at)] cores command resolves to on a cluster of
    [max_cores] cores, read in place: clamped to [1, max_cores], NaN
    conservatively to 1.  The frequency's counterpart is
    {!Spectr_platform.Opp.request_at}. *)

val apply_cluster : Soc.t -> int -> float array -> at:int -> unit
(** Helper shared by all managers: sanitize (non-finite or negative
    commands clamp to the nearest legal value, NaN conservatively to the
    low end), quantize and apply the (frequency GHz, core count) command
    pair [u.(at)], [u.(at + 1)] to one cluster — addressed by its
    platform description index.
    Core commands clamp to the cluster's physical core count.  What was
    actually applied is read back from the platform
    ({!Spectr_platform.Soc.frequency}, {!Spectr_platform.Soc.active_cores});
    under an actuator fault it differs from the request, which is how
    the guarded managers detect stuck actuators.  The pair is read in
    place and the OPP reaches the SoC as an int
    ({!Spectr_platform.Soc.set_opp}), so nothing is boxed but the
    voltage the SoC looks up when the OPP changes. *)

val command_cluster : Soc.t -> int -> float array -> at:int -> int
(** {!apply_cluster}, returning the OPP (MHz) it requested — what an
    obedient rail reads back, and so the guarded managers' readback
    expectation. *)
