(** Warm manager arena: build each campaign variant's manager once per
    domain and reset it between cells from a pristine checkpoint,
    instead of reconstructing the controller stack for every cell.  A
    cell checks out once; its kill drill restores into that manager.

    Checkout semantics are equivalence, not sharing: a checked-out
    manager has exactly the state of a freshly built one (the
    batch-vs-one-shot digest tests pin this), but only ONE cell per
    domain may use it at a time — the next checkout of the same variant
    resets it.  Slots are domain-local, so one arena value can be
    passed to a parallel sweep and each worker warms its own slots. *)

type t

val create : unit -> t

val checkout :
  t ->
  Campaign.variant ->
  Spectr.Manager.t
  * Spectr.Supervisor.t option
  * Spectr.Guarded.t option
  * Spectr.Spectr_manager.Reconfig.handle option
(** Return the domain's manager for [variant], reset to its
    just-constructed state.  The first checkout per (domain, variant)
    builds the manager (gain design is shared process-wide underneath);
    later checkouts restore the pristine checkpoint.  Invalidates
    whatever the previous checkout of this variant on this domain
    returned — from any arena: the slots are shared process-wide.
    Every shipped variant, [Spectr_r] included, checkpoints and so is
    warmed; a persist-less manager would be rebuilt on every checkout. *)
