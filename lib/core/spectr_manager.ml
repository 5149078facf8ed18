open Spectr_control
open Spectr_platform
module Obs = Spectr_obs

(* Observability handles (no-ops while instrumentation is disabled). *)
let c_steps = Obs.Counters.counter "manager.steps"
let c_degraded = Obs.Counters.counter "manager.degraded_steps"
let c_act_mismatch = Obs.Counters.counter "guard.actuation_mismatches"
let c_reconfigs = Obs.Counters.counter "manager.reconfigurations"
let c_swap_ticks = Obs.Counters.counter "manager.swap_window_ticks"

module Reconfig = struct
  (* The FDIR ladder's reconfiguration rungs.  [Nominal] and
     [Reconfigured] are both closed-loop (the distinction records whether
     the supervised plant is still the boot-time description);
     [Swapping] is the bounded open-loop window while a re-synthesized
     supervisor is hot-swapped in; [Fallback] is the permanent open-loop
     floor for unrecoverable faults (dead host, blind QoS sensor, or a
     degradation the description cannot express). *)
  type status = Nominal | Swapping | Reconfigured | Fallback

  let status_label = function
    | Nominal -> "nominal"
    | Swapping -> "swapping"
    | Reconfigured -> "reconfigured"
    | Fallback -> "fallback"

  (* The handle's own checkpointed fields, a record of their own: a
     checkpoint holds a twin, and one [copy_book] moves it either way.
     The supervised description is derived from [degradations]. *)
  type book = {
    mutable degradations : Platform_desc.degradation list; (* oldest first *)
    mutable tick : int;
    mutable status : status;
    mutable swap_left : int;
    mutable reconfigs : int;
    excluded : bool array; (* physical: removed from the supervised plant *)
    dead : bool array; (* physical: believed dead — never actuated again *)
    pinned_freq : int option array; (* physical: DVFS rail latched here *)
    last_applied_freq : int array; (* physical: last actuation readback *)
  }

  let copy_book ~src ~dst =
    dst.degradations <- src.degradations;
    dst.tick <- src.tick;
    dst.status <- src.status;
    dst.swap_left <- src.swap_left;
    dst.reconfigs <- src.reconfigs;
    let k = Array.length dst.excluded in
    Array.blit src.excluded 0 dst.excluded 0 k;
    Array.blit src.dead 0 dst.dead 0 k;
    Array.blit src.pinned_freq 0 dst.pinned_freq 0 k;
    Array.blit src.last_applied_freq 0 dst.last_applied_freq 0 k

  (* The whole state of one SPECTR-family manager.  Without the FDIR
     layer [degradations] stays empty, [phys] the identity and [status]
     [Nominal]. *)
  type handle = {
    boot : Platform_desc.t;
    host_phys : int; (* host's physical cluster index; never remapped *)
    boot_ctrls : Mimo.t array; (* one per physical cluster *)
    boot_sup : Supervisor.t;
    commands : Supervisor.commands;
    supervisor_divisor : int;
    guard : Guarded.t option;
    fdir : Fdir.t option;
    meas : float array array; (* preallocated per-cluster tick buffers *)
    cmd : float array array;
    mutable desc : Platform_desc.t; (* current supervised description *)
    mutable phys : int array; (* description index -> physical cluster *)
    ctrls : Mimo.t array ref; (* description order; shared with commands *)
    mutable sup : Supervisor.t;
    book : book;
    mutable resynth_s : float; (* last re-synthesis CPU seconds *)
  }

  let status h = h.book.status
  let reconfigurations h = h.book.reconfigs
  let platform h = h.desc
  let supervisor h = h.sup

  (* Handles escape only from [make_reconfigurable], which arms it. *)
  let guard h = Option.get h.guard
  let last_resynth_s h = h.resynth_s

  let excluded_clusters h =
    let acc = ref [] in
    for p = Array.length h.book.excluded - 1 downto 0 do
      if h.book.excluded.(p) then acc := p :: !acc
    done;
    !acc

  let log_status h =
    if Obs.enabled () then
      Obs.Decision_log.record
        (Obs.Decision_log.Reconfig
           {
             platform = Platform_desc.name h.desc;
             status = status_label h.book.status;
           })
end

open Reconfig

let without j arr =
  Array.init (Array.length arr - 1) (fun i -> if i < j then arr.(i) else arr.(i + 1))

(* One degradation step on the supervised plant: the degraded description
   and its description->physical map.  Raises [Invalid_argument] as
   {!Platform_desc.degrade}. *)
let degrade_plant (desc, phys) d =
  let phys =
    match d with
    | Platform_desc.Remove_cluster j -> without j phys
    | Platform_desc.Pin_opp _ -> phys
  in
  (Platform_desc.degrade desc d, phys)

let set_plant h degradations (desc, phys) =
  h.book.degradations <- degradations;
  h.desc <- desc;
  h.phys <- phys;
  h.ctrls := Array.map (fun p -> h.boot_ctrls.(p)) phys

let new_supervisor h desc =
  Supervisor.create ~platform:desc ~commands:h.commands ~envelope:5.0 ()

let enter_fallback h =
  if h.book.status <> Fallback then begin
    h.book.status <- Fallback;
    log_status h
  end

(* Open-loop swap window after a supervisor hot-swap, in control
   periods of floor actuation. *)
let swap_ticks = 4

(* Hot-swap onto the plant degraded by [d]: surviving controllers are
   reused untouched (the physics of a surviving cluster did not change,
   so neither did its identified model), only the supervisor is
   re-synthesized — the warm Synth_cache makes this sub-second — and the
   outgoing engine state is carried across via {!Supervisor.adopt}.  The
   open-loop swap window ([swap_ticks] periods of floor actuation) then
   drains before the new closed loop takes over.  Returns [false] (and
   falls back) when the description cannot express [d]. *)
let degrade h d =
  match degrade_plant (h.desc, h.phys) d with
  | exception Invalid_argument _ ->
      enter_fallback h;
      false
  | plant ->
      set_plant h (h.book.degradations @ [ d ]) plant;
      let t0 = Sys.time () in
      let sup = new_supervisor h h.desc in
      h.resynth_s <- Sys.time () -. t0;
      Supervisor.adopt sup ~prev:h.sup;
      h.sup <- sup;
      h.book.reconfigs <- h.book.reconfigs + 1;
      Obs.Counters.incr c_reconfigs;
      h.book.status <- Swapping;
      h.book.swap_left <- swap_ticks;
      log_status h;
      true

let desc_index_of_phys h p =
  let r = ref (-1) in
  Array.iteri (fun j q -> if q = p then r := j) h.phys;
  !r

(* Remove physical cluster [p] from the supervised plant.  [believed_dead]
   distinguishes a dead cluster (never actuated again) from a live
   cluster with a dead power sensor (pinned to its floor OPP — running it
   any faster would be unobservable power draw). *)
let remove_cluster h p ~believed_dead =
  if believed_dead then h.book.dead.(p) <- true;
  if not h.book.excluded.(p) then
    if p = h.host_phys then enter_fallback h
    else
      match desc_index_of_phys h p with
      | -1 -> ()
      | j ->
          if degrade h (Platform_desc.Remove_cluster j) then begin
            h.book.excluded.(p) <- true;
            Guarded.set_power_masked (guard h) ~cluster:p true
          end

let handle_finding h = function
  | Fdir.Cluster_down p -> remove_cluster h p ~believed_dead:true
  | Fdir.Power_sensor_down p -> remove_cluster h p ~believed_dead:false
  | Fdir.Qos_sensor_down -> enter_fallback h
  | Fdir.Dvfs_latched p ->
      if h.book.pinned_freq.(p) = None && not h.book.excluded.(p) then begin
        match desc_index_of_phys h p with
        | -1 -> ()
        | j ->
            let f = h.book.last_applied_freq.(p) in
            (* Cluster set unchanged: controllers and the
               description->physical map carry over as-is. *)
            if degrade h (Platform_desc.Pin_opp { cluster = j; freq_mhz = f })
            then h.book.pinned_freq.(p) <- Some f
      end

(* One physical-cluster actuation.  Guarded, the OPP/core count read back
   from the platform must match the sanitized expectation, and the
   verdict feeds the watchdog and the FDIR detector.  A cluster whose
   DVFS rail is known-latched is expected to read back its latched
   frequency — the rail ignoring requests is no longer a fault once the
   plant has been re-synthesized around it. *)
let actuate h soc p u ~now =
  let requested = Manager.command_cluster soc p u ~at:0 in
  match h.guard with
  | None -> ()
  | Some g -> (
      let freq = Soc.frequency soc p in
      h.book.last_applied_freq.(p) <- freq;
      let expected_freq =
        match h.book.pinned_freq.(p) with Some f -> f | None -> requested
      in
      let ok =
        freq = expected_freq
        && Soc.active_cores soc p
           = Manager.sanitize_cores ~max_cores:(Soc.cluster_cores soc p) u
               ~at:1
      in
      if not ok then Obs.Counters.incr c_act_mismatch;
      Guarded.note_actuation g ~now ~ok;
      match h.fdir with
      | Some fd -> Fdir.note_actuation fd ~cluster:p ~ok
      | None -> ())

(* Conservative floor sweep: every cluster not believed dead is pinned to
   its minimum-power configuration.  With every actuator driven to its
   floor, any single surviving actuator keeps chip power inside the
   envelope. *)
let floor_command = [| 0.2; 1. |] (* GHz, cores; read only *)

let floor_all h soc ~now =
  for p = 0 to Array.length h.book.dead - 1 do
    if not h.book.dead.(p) then actuate h soc p floor_command ~now
  done

let step h ~now ~qos_ref ~envelope ~obs soc =
  Obs.Counters.incr c_steps;
  (* SoC-owned per-cluster sensor arrays: read-only here, valid until the
     next platform step. *)
  let raw_powers = Soc.sensor_powers soc in
  let ips = Soc.ips_totals soc in
  (* FDIR watches the raw (pre-guard) evidence: substitution would hide
     exactly the exact-zero streaks it needs to see. *)
  (match h.fdir with
  | Some fd -> Fdir.observe fd ~qos:obs.Soc.qos_rate ~powers:raw_powers ~ips
  | None -> ());
  let qos, powers =
    match h.guard with
    | None -> ((obs.Soc.qos_rate : float), raw_powers)
    | Some g ->
        let f = Guarded.filter g ~now ~qos:obs.Soc.qos_rate ~powers:raw_powers in
        (f.Guarded.qos, Guarded.powers g)
  in
  (match h.fdir with
  | Some fd when h.book.status <> Fallback -> (
      match Fdir.poll fd with
      | [] -> ()
      | findings -> List.iter (handle_finding h) findings)
  | _ -> ());
  let tick = h.book.tick in
  h.book.tick <- tick + 1;
  match h.book.status with
  | Fallback -> floor_all h soc ~now
  | Swapping ->
      Obs.Counters.incr c_swap_ticks;
      floor_all h soc ~now;
      h.book.swap_left <- h.book.swap_left - 1;
      if h.book.swap_left <= 0 then begin
        h.book.status <- Reconfigured;
        log_status h
      end
  | Nominal | Reconfigured -> (
      match h.guard with
      | Some g when Guarded.degraded g ->
          (* Open-loop fallback: sensors (or actuators) are untrustworthy,
             so pin the minimum-power configuration and freeze the
             supervisor and all leaf controllers (their state resumes
             unpolluted once readings return). *)
          Obs.Counters.incr c_degraded;
          floor_all h soc ~now
      | _ ->
          let k = Array.length h.phys in
          let cs = !(h.ctrls) in
          Mimo.set_reference cs.(Platform_desc.host h.desc) ~index:0 qos_ref;
          (* Supervisor period: every [supervisor_divisor] controller
             periods. *)
          (if tick mod h.supervisor_divisor = 0 then begin
             let total = ref 0. in
             for j = 0 to k - 1 do
               total := !total +. powers.(h.phys.(j))
             done;
             Supervisor.step h.sup ~qos ~qos_ref ~power:!total ~envelope
           end);
          for j = 0 to k - 1 do
            let p = h.phys.(j) in
            let m = h.meas.(j) in
            let u = h.cmd.(j) in
            m.(0) <- (if p = h.host_phys then qos else ips.(p) /. 1e9);
            m.(1) <- powers.(p);
            Mimo.step_into cs.(j) ~measured:m ~dst:u;
            (match h.fdir with
            | Some fd ->
                Fdir.note_innovation fd ~cluster:p
                  ~norm:(Mimo.last_innovation_norm cs.(j))
            | None -> ());
            actuate h soc p u ~now
          done;
          (* A live cluster removed from the plant (dead power sensor)
             stays pinned to its floor. *)
          for p = 0 to Array.length h.book.excluded - 1 do
            if h.book.excluded.(p) && not h.book.dead.(p) then
              actuate h soc p floor_command ~now
          done)

(* Everything a checkpoint carries: every layer's saved state, all
   boot-time controllers and the handle's own fields.  [sup] is the
   saved state of the supervisor for [book.degradations]' description;
   a save after a reconfiguration replaces it. *)
type saved = {
  mutable sup : Supervisor.saved;
  guard : Guarded.saved option;
  fdir : Fdir.saved option;
  ctrls : Mimo.saved array;
  book : book;
}

let saved_id : saved Type.Id.t = Type.Id.make ()

let saved (h : handle) () =
  {
    sup = Supervisor.saved h.sup;
    guard = Option.map Guarded.saved h.guard;
    fdir = Option.map Fdir.saved h.fdir;
    ctrls = Array.map Mimo.saved h.boot_ctrls;
    book =
      {
        h.book with
        excluded = Array.copy h.book.excluded;
        dead = Array.copy h.book.dead;
        pinned_freq = Array.copy h.book.pinned_freq;
        last_applied_freq = Array.copy h.book.last_applied_freq;
      };
  }

(* A restore re-derives the supervised description from the boot one;
   the supervisor is rebuilt (through the warm synthesis cache) only
   when that description differs from the live one, and before the
   controllers are restored, so their saved budgets overwrite the ones
   a fresh supervisor pushes. *)
let copy (h : handle) s ~restore =
  let k0 = Array.length h.boot_ctrls in
  (* The variant tag already rules a layer mismatch out, but a corrupted
     checkpoint must not half-restore. *)
  let same a b = Option.is_some a = Option.is_some b in
  if
    Array.length s.ctrls <> k0
    || not (same s.guard h.guard && same s.fdir h.fdir)
  then invalid_arg "Spectr_manager.copy: checkpoint does not fit the manager";
  if restore then begin
    if s.book.degradations <> h.book.degradations then begin
      set_plant h s.book.degradations
        (List.fold_left degrade_plant (h.boot, Array.init k0 Fun.id)
           s.book.degradations);
      h.sup <-
        (if s.book.degradations = [] then h.boot_sup
         else new_supervisor h h.desc)
    end
  end
  else if s.book.degradations != h.book.degradations then
    s.sup <- Supervisor.saved h.sup;
  Supervisor.copy h.sup s.sup ~restore;
  for i = 0 to k0 - 1 do
    Mimo.copy h.boot_ctrls.(i) s.ctrls.(i) ~restore
  done;
  (match (h.guard, s.guard) with
  | Some g, Some sg -> Guarded.copy g sg ~restore
  | _ -> ());
  (match (h.fdir, s.fdir) with
  | Some fd, Some sfd -> Fdir.copy fd sfd ~restore
  | _ -> ());
  if restore then copy_book ~src:s.book ~dst:h.book
  else copy_book ~src:h.book ~dst:s.book

(* The one SPECTR loop.  [guard] and [fdir] arm the optional layers:
   SPECTR has neither, SPECTR+G the guard, SPECTR+R the guard plus
   FDIR-driven reconfiguration with a [swap_ticks]-period swap window. *)
let build ~who ~name ~supervisor_divisor ~gain_scheduling ~guard ~fdir
    platform =
  if supervisor_divisor < 1 then invalid_arg (who ^ ": supervisor_divisor < 1");
  let k0 = Platform_desc.num_clusters platform in
  let host_phys = Platform_desc.host platform in
  (match guard with
  | Some g when Guarded.clusters g <> k0 ->
      invalid_arg
        (Printf.sprintf
           "%s: guard tracks %d power channels, platform has %d clusters" who
           (Guarded.clusters g) k0)
  | _ -> ());
  (* In QoS mode the secondary clusters are kept moderately fast so they
     can absorb background interference; in power mode the gain switch
     makes their power budgets the pinned objective. *)
  let boot_ctrls =
    Mm.cluster_controllers platform ~initial:"qos" ~refs:(fun i ->
        if i = host_phys then [| 60.; 4. |] else [| 2.0; 0.3 |])
  in
  (* The command closures index through the shared [ctrls] cell, so the
     one closure pair installed at boot keeps working across supervisor
     hot-swaps — the freshly synthesized supervisor pushes its budgets
     into whatever controller array is current. *)
  let ctrls = ref boot_ctrls in
  let commands =
    {
      Supervisor.switch_gains =
        (fun label ->
          if gain_scheduling then
            Array.iter (fun c -> Mimo.switch_gains c label) !ctrls);
      set_power_ref = (fun i v -> Mimo.set_reference !ctrls.(i) ~index:1 v);
    }
  in
  let boot_sup = Supervisor.create ~platform ~commands ~envelope:5.0 () in
  let h =
    {
      boot = platform;
      host_phys;
      boot_ctrls;
      boot_sup;
      commands;
      supervisor_divisor;
      guard;
      fdir = (if fdir then Some (Fdir.create ~k:k0 ~host:host_phys ()) else None);
      meas = Array.init k0 (fun _ -> [| 0.; 0. |]);
      cmd = Array.init k0 (fun _ -> [| 0.; 0. |]);
      desc = platform;
      phys = Array.init k0 Fun.id;
      ctrls;
      sup = boot_sup;
      book =
        {
          degradations = [];
          tick = 0;
          status = Nominal;
          swap_left = 0;
          reconfigs = 0;
          excluded = Array.make k0 false;
          dead = Array.make k0 false;
          pinned_freq = Array.make k0 None;
          last_applied_freq = Array.make k0 0;
        };
      resynth_s = 0.;
    }
  in
  (* The variant tag encodes the layers, gain scheduling and — off the
     reference platform — the boot platform digest, so a checkpoint can't
     cross ablation variants or platforms. *)
  let variant =
    Manager.platform_variant platform
      (if gain_scheduling then name else name ^ "-nogs")
  in
  let persist =
    Manager.make_persist ~variant ~id:saved_id ~saved:(saved h) ~copy:(copy h)
  in
  ({ Manager.name; step = step h; persist = Some persist }, h)

let make ?(supervisor_divisor = 2) ?(gain_scheduling = true)
    ?guards ?(platform = Platform_desc.exynos5422) () =
  let name = match guards with None -> "SPECTR" | Some _ -> "SPECTR+G" in
  let mgr, h =
    build ~who:"Spectr_manager.make" ~name ~supervisor_divisor
      ~gain_scheduling ~guard:guards ~fdir:false platform
  in
  (mgr, h.sup)

let make_reconfigurable ?(platform = Platform_desc.exynos5422) () =
  let guard =
    Guarded.create ~clusters:(Platform_desc.num_clusters platform) ()
  in
  build ~who:"Spectr_manager.make_reconfigurable" ~name:"SPECTR+R"
    ~supervisor_divisor:2 ~gain_scheduling:true ~guard:(Some guard)
    ~fdir:true platform
