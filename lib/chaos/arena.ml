(* Warm manager arena for batched campaigns.

   A chaos campaign (and the perf bench's chaos workload) runs thousands of
   short cells, and naively each cell builds its manager from scratch.
   Gain design is already memoized process-wide
   (Design_flow.design_gains_for), which removes the LQG pipeline from
   the per-cell cost, but construction still allocates the controller
   stack and the supervisor every time.  The arena removes that too:
   one manager per (domain, variant), built on first checkout, with a
   pristine checkpoint taken immediately after construction.  Every
   later checkout restores the pristine checkpoint — save/restore is
   complete-state in every layer (Supervisor, Mimo, Pid, Guarded, Fdir,
   and the reconfiguration rung and degraded description), and a
   restore copies out of the checkpoint without sharing its state, so
   a reset manager is observationally identical to a fresh one; the
   batch-vs-one-shot digest tests pin exactly that.  A cell's kill
   drill restores into the same manager (Engine): no reset rebuilds.

   Slots are domain-local (Domain.DLS): managers are mutable and
   single-threaded, so a shared arena value can be passed to a parallel
   sweep (Parmap over Pool domains) and each worker transparently warms
   its own slot set.  The design cache underneath is single-flight, so
   concurrent first checkouts across domains still run each
   identification experiment once.

   The slot tables hang off one process-wide key, shared by every arena:
   a key is never reclaimed, so a key per [create] would pin each
   domain's warm managers for the life of the process.  Sharing is safe
   because a checkout is a reset — whichever arena built a slot, the
   pristine checkpoint is the same. *)

type slot = {
  sl_mgr : Spectr.Manager.t;
  sl_sup : Spectr.Supervisor.t option;
  sl_guards : Spectr.Guarded.t option;
  sl_handle : Spectr.Spectr_manager.Reconfig.handle option;
  sl_pristine : Spectr.Manager.checkpoint;
  sl_restore : Spectr.Manager.checkpoint -> unit;
}

let slots : (Campaign.variant, slot) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

type t = unit

let create () = ()

let checkout () variant =
  let slots = Domain.DLS.get slots in
  match Hashtbl.find_opt slots variant with
  | Some s ->
      s.sl_restore s.sl_pristine;
      (s.sl_mgr, s.sl_sup, s.sl_guards, s.sl_handle)
  | None ->
      let mgr, sup, guards, handle = Campaign.make_manager variant in
      (match mgr.Spectr.Manager.persist with
      | Some p ->
          Hashtbl.replace slots variant
            {
              sl_mgr = mgr;
              sl_sup = sup;
              sl_guards = guards;
              sl_handle = handle;
              sl_pristine = p.Spectr.Manager.snapshot ();
              sl_restore = p.Spectr.Manager.restore;
            }
      | None ->
          (* No persistence hook means no way to reset state between
             cells; such a manager is simply rebuilt every checkout. *)
          ());
      (mgr, sup, guards, handle)
