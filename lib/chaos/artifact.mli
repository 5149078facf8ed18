(** Replayable reproducer artifacts.

    A failing (usually shrunk) campaign cell serialized to a small
    line-oriented text file:

    {v
    spectr-chaos-reproducer v1
    seed 42
    index 7
    variant SPECTR
    workload x264
    fault dropout:power@3.5/6.5
    kill 120 0
    invariant power-cap
    digest 0f1e...
    v}

    [fault] lines repeat; [kill], [invariant] and [digest] are optional.
    Fault windows use {!Spectr_platform.Faults.injection_to_string}
    (full-precision times), so a loaded artifact reconstructs the exact
    cell — and because the engine is deterministic, [spectr_cli replay]
    of the same artifact produces the same trace digest every time. *)

type t = {
  cell : Campaign.cell;
  invariant : Invariants.kind option;
      (** The invariant the reproducer is expected to violate (any
          invariant counts when absent). *)
  digest : string option;  (** Expected trace digest, when pinned. *)
}

val to_string : t -> string

val of_string : string -> t
(** Raises [Invalid_argument] with a line-precise message on a malformed
    artifact (bad header, missing field, unparseable window, kill drill
    with [staleness > kill_tick], unknown key, …).  Every cell runs on
    {!Campaign.phases}, so no line describes the scenario shape. *)

val save : path:string -> t -> unit
(** Crash-safe: temp file in the destination directory plus atomic
    rename. *)

val load : path:string -> t
(** Raises [Invalid_argument] on a malformed file, [Sys_error] on I/O
    failure. *)

type replay = {
  outcome : Engine.outcome;
  reproduced : bool;
      (** The expected invariant (or any, when none is recorded) was
          violated again. *)
  digest_matched : bool option;
      (** Trace digest equal to the recorded one ([None] when the
          artifact pins no digest). *)
}

val replay : t -> replay
(** Re-execute the cell deterministically and judge it. *)
