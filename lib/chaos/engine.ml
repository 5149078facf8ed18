open Spectr_platform

type outcome = {
  cell : Campaign.cell;
  violations : Invariants.violation list;
  ticks : int;
  digest : string;
  watchdog_recoveries : int;
  checkpointed : bool;
  reconfigurations : int;
  reconfig_status : string option;
}

let run_cell ?arena (cell : Campaign.cell) =
  let config = Campaign.config_of_cell cell in
  (* With an arena the cell's one manager is a warm checkout: same
     variant slot, reset to pristine state.  Identical observable
     behaviour either way (pinned by the arena digest tests). *)
  let mgr, sup, guards, handle =
    match arena with
    | None -> Campaign.make_manager cell.Campaign.variant
    | Some a -> Arena.checkout a cell.Campaign.variant
  in
  let dt = config.Spectr.Scenario.controller_period in
  let kill_time =
    Option.map
      (fun k -> float_of_int k.Campaign.kill_tick *. dt)
      cell.Campaign.kill
  in
  let monitor = Invariants.create ~config ?kill_time () in
  (* SPECTR+R replaces its supervisor on every hot-swap; the legality
     monitor must see the live one, never a cached pre-swap copy.  Its
     option is rebuilt only when the supervisor changes, not per tick. *)
  let live = ref None in
  let live_sup () =
    match handle with
    | Some h ->
        let s = Spectr.Spectr_manager.Reconfig.supervisor h in
        (match !live with
        | Some s' when s' == s -> ()
        | _ -> live := Some s);
        !live
    | None -> sup
  in
  let runner = Spectr.Scenario.start config in
  let ckpt = ref None in
  let rec loop () =
    let n = Spectr.Scenario.ticks_done runner in
    (match (cell.Campaign.kill, mgr.Spectr.Manager.persist) with
    | Some k, Some p ->
        (* Snapshot the state reached after [kill_tick − staleness]
           ticks; for staleness 0 this is the very boundary the manager
           dies on, so restore must continue byte-identically. *)
        if n = k.Campaign.kill_tick - k.Campaign.staleness then
          ckpt := Some (p.Spectr.Manager.snapshot ());
        (* Kill: the daemon crashes and restarts from its checkpoint,
           restored in place over its whole state, so whatever it did
           since the checkpoint is lost.  The platform — SoC,
           heartbeat monitor, fault schedule, trace — keeps running;
           hardware does not reboot when the daemon crashes. *)
        if n = k.Campaign.kill_tick then
          Option.iter p.Spectr.Manager.restore !ckpt
    | _ -> ());
    match Spectr.Scenario.tick runner ~manager:mgr with
    | None -> ()
    | Some obs ->
        Invariants.check monitor ~runner ~sup:(live_sup ()) ~obs;
        loop ()
  in
  loop ();
  {
    cell;
    violations = Invariants.violations monitor;
    ticks = Spectr.Scenario.ticks_done runner;
    digest = Trace.csv_digest (Spectr.Scenario.trace runner);
    watchdog_recoveries =
      (match guards with
      | None -> 0
      | Some g -> List.length (Spectr.Guarded.recovery_times g));
    checkpointed = Option.is_some !ckpt;
    reconfigurations =
      (match handle with
      | None -> 0
      | Some h -> Spectr.Spectr_manager.Reconfig.reconfigurations h);
    reconfig_status =
      Option.map
        (fun h ->
          Spectr.Spectr_manager.Reconfig.(status_label (status h)))
        handle;
  }

let violates ?kind outcome =
  match kind with
  | None -> outcome.violations <> []
  | Some k ->
      List.exists (fun v -> v.Invariants.v_kind = k) outcome.violations
