(** Execute one campaign cell: drive the scenario tick by tick, check
    every invariant after every tick, and run the cell's kill/restart
    drill if it has one.

    The drill checkpoints the manager [staleness] ticks before the kill
    (using its {!Spectr.Manager.persist} capability), then at the kill
    tick restores the checkpoint into the cell's one manager, over its
    whole state, as a restarted daemon would — the platform keeps
    running throughout.  With [staleness = 0] the restored manager
    continues byte-identically (pinned by the chaos tests); with
    [staleness > 0] it resynchronizes from fresh sensor samples, and the
    kill counts as a disturbance instant for the invariant deadlines. *)

type outcome = {
  cell : Campaign.cell;
  violations : Invariants.violation list;  (** Oldest first, capped. *)
  ticks : int;
  digest : string;
      (** MD5 hex of the trace CSV — equal digests mean byte-identical
          traces, the replay-determinism currency of the artifacts. *)
  watchdog_recoveries : int;
      (** Completed guard degradations (0 for unguarded variants). *)
  checkpointed : bool;
      (** The kill drill actually took a checkpoint.  Every shipped
          variant, [Spectr_r] included, has a persist hook, so this is
          false only when the cell has no kill drill or the run ends
          before the checkpoint tick. *)
  reconfigurations : int;
      (** Completed supervisor hot-swaps (0 for every variant but
          [Spectr_r]). *)
  reconfig_status : string option;
      (** Final FDIR-ladder rung of a [Spectr_r] cell
          ({!Spectr.Spectr_manager.Reconfig.status_label}); [None] for
          other variants. *)
}

val run_cell : ?arena:Arena.t -> Campaign.cell -> outcome
(** Deterministic: equal cells give equal outcomes,
    including the digest — with or without an [arena].  When [arena] is
    given, the cell's manager comes from a warm {!Arena.checkout}
    (built once per domain per variant, reset between cells) instead
    of being built for the cell. *)

val violates : ?kind:Invariants.kind -> outcome -> bool
(** Did the run violate (that invariant / any invariant)? *)
