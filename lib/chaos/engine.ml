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

let digest_of_trace trace = Digest.to_hex (Digest.string (Trace.to_csv trace))

let run_cell ?arena (cell : Campaign.cell) =
  let config = Campaign.config_of_cell cell in
  (* With an arena, manager (re)construction is a warm checkout: same
     variant slot, reset to pristine state.  Identical observable
     behaviour either way (pinned by the arena digest tests). *)
  let make_manager () =
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
  let mgr0, sup0, guards0, handle0 = make_manager () in
  let mgr = ref mgr0 and sup = ref sup0 and guards = ref guards0 in
  let handle = ref handle0 in
  (* SPECTR+R replaces its supervisor on every hot-swap; the legality
     monitor must see the live one, never a cached pre-swap copy. *)
  let live_sup () =
    match !handle with
    | Some h -> Some (Spectr.Spectr_manager.Reconfig.supervisor h)
    | None -> !sup
  in
  let runner = Spectr.Scenario.start config in
  let ckpt = ref None in
  let restarted = ref false in
  let rec loop () =
    let n = Spectr.Scenario.ticks_done runner in
    (match cell.Campaign.kill with
    | Some k when n = k.Campaign.kill_tick - k.Campaign.staleness
                  && !ckpt = None -> (
        (* Snapshot the state reached after [kill_tick − staleness]
           ticks; for staleness 0 this is the very boundary the manager
           dies on, so restore must continue byte-identically. *)
        match (!mgr).Spectr.Manager.persist with
        | Some p -> ckpt := Some (p.Spectr.Manager.snapshot ())
        | None -> ())
    | _ -> ());
    (match (cell.Campaign.kill, !ckpt) with
    | Some k, Some c when n = k.Campaign.kill_tick && not !restarted ->
        (* Kill: drop the running manager on the floor, build a fresh
           one and restore the checkpoint into it.  The platform — SoC,
           heartbeat monitor, fault schedule, trace — keeps running;
           hardware does not reboot when the daemon crashes. *)
        restarted := true;
        let m2, s2, g2, h2 = make_manager () in
        (match m2.Spectr.Manager.persist with
        | Some p -> p.Spectr.Manager.restore c
        | None -> ());
        mgr := m2;
        sup := s2;
        guards := g2;
        handle := h2
    | _ -> ());
    match Spectr.Scenario.tick runner ~manager:!mgr with
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
    digest = digest_of_trace (Spectr.Scenario.trace runner);
    watchdog_recoveries =
      (match !guards with
      | None -> 0
      | Some g -> List.length (Spectr.Guarded.recovery_times g));
    checkpointed = Option.is_some !ckpt;
    reconfigurations =
      (match !handle with
      | None -> 0
      | Some h -> Spectr.Spectr_manager.Reconfig.reconfigurations h);
    reconfig_status =
      Option.map
        (fun h ->
          Spectr.Spectr_manager.Reconfig.(status_label (status h)))
        !handle;
  }

let violates ?kind outcome =
  match kind with
  | None -> outcome.violations <> []
  | Some k ->
      List.exists (fun v -> v.Invariants.v_kind = k) outcome.violations
