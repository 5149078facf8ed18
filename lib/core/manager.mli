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
    wrote it plus a [Marshal]-ed plain-data payload (controller
    snapshots — see {!Spectr_control.Mimo.snapshot},
    {!Supervisor.snapshot}, {!Guarded.snapshot} — and the tick phase),
    held in a buffer the checkpoint owns.  A checkpoint is mutable:
    {!persist.save} overwrites it in place, so a caller that saves
    every period into one checkpoint allocates no payload per save.
    Restoring a checkpoint into a manager of a different variant raises
    [Invalid_argument]. *)

val empty_checkpoint : unit -> checkpoint
(** A fresh checkpoint holding nothing: restoring it leaves a manager as
    it is.  Its buffer is sized by the first payload saved into it. *)

val checkpoint_bytes : checkpoint -> int
(** The payload's size in bytes; 0 while the checkpoint is empty. *)

type persist = {
  save : checkpoint -> unit;
      (** Capture the manager's complete mutable state into the given
          checkpoint, in place: the payload is marshalled into the
          checkpoint's own buffer.  The first payload sizes the buffer;
          a later payload that outgrows it doubles it and is rewritten.
          The checkpoint reads empty while the write is under way.
          Cheap (no I/O, a few small copies) — safe to call every
          period. *)
  snapshot : unit -> checkpoint;
      (** [save] into a fresh {!empty_checkpoint}. *)
  restore : checkpoint -> unit;
      (** Overwrite the manager's state from a checkpoint.  After
          [restore], stepping continues bit-identically to the
          snapshotted instance — the checkpoint/resume guarantee the
          chaos soak pins.  An empty checkpoint restores nothing.
          Raises [Invalid_argument] on a variant mismatch or corrupted
          payload. *)
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
  variant:string -> snapshot:(unit -> 'a) -> restore:('a -> unit) -> persist
(** The persistence hook of a manager whose complete mutable state is the
    plain-data value [snapshot ()] returns: the checkpoint carries it
    [Marshal]-ed under the tag [variant], and restoring a checkpoint
    with any other tag raises [Invalid_argument] before [restore] sees
    the payload.  [restore] must accept exactly the type [snapshot]
    produces.  [save], [snapshot] and [restore] share one marshalling
    path: [snapshot ()] is [save] applied to a fresh checkpoint. *)

val sanitize_freq_mhz : Spectr_platform.Opp.t -> float -> float
(** The frequency a [freq_ghz] command will be quantized from, in MHz:
    non-finite and negative values clamp to the table's legal range
    (NaN conservatively to the minimum OPP). *)

val sanitize_cores : max_cores:int -> float -> int
(** The core count a [cores] command resolves to on a cluster of
    [max_cores] cores: clamped to [1, max_cores], NaN conservatively
    to 1. *)

val apply_cluster : Soc.t -> int -> freq_ghz:float -> cores:float -> unit
(** Helper shared by all managers: sanitize (non-finite or negative
    commands clamp to the nearest legal value, NaN conservatively to the
    low end), quantize and apply a (frequency GHz, core count) command
    pair to one cluster — addressed by its platform description index.
    Core commands clamp to the cluster's physical core count.  What was
    actually applied is read back from the platform
    ({!Spectr_platform.Soc.frequency}, {!Spectr_platform.Soc.active_cores});
    under an actuator fault it differs from the request, which is how
    the guarded managers detect stuck actuators.  Allocation-free. *)

val command_cluster : Soc.t -> int -> freq_ghz:float -> cores:float -> int
(** {!apply_cluster}, returning the OPP (MHz) it requested — what an
    obedient rail reads back, and so the guarded managers' readback
    expectation.  Allocation-free beyond the one boxed request. *)
