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
    mutable degradations : Platform_desc.degradation list; (* oldest first *)
    mutable phys : int array; (* description index -> physical cluster *)
    ctrls : Mimo.t array ref; (* description order; shared with commands *)
    mutable sup : Supervisor.t;
    excluded : bool array; (* physical: removed from the supervised plant *)
    dead : bool array; (* physical: believed dead — never actuated again *)
    pinned_freq : int option array; (* physical: DVFS rail latched here *)
    last_applied_freq : int array; (* physical: last actuation readback *)
    mutable tick : int;
    mutable status : status;
    mutable swap_left : int;
    mutable reconfigs : int;
    mutable resynth_s : float; (* last re-synthesis CPU seconds *)
  }

  let status h = h.status
  let reconfigurations h = h.reconfigs
  let platform h = h.desc
  let supervisor h = h.sup

  (* Handles escape only from [make_reconfigurable], which arms it. *)
  let guard h = Option.get h.guard
  let last_resynth_s h = h.resynth_s

  let excluded_clusters h =
    let acc = ref [] in
    for p = Array.length h.excluded - 1 downto 0 do
      if h.excluded.(p) then acc := p :: !acc
    done;
    !acc

  let log_status h =
    if Obs.enabled () then
      Obs.Decision_log.record
        (Obs.Decision_log.Reconfig
           {
             platform = Platform_desc.name h.desc;
             status = status_label h.status;
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
  h.degradations <- degradations;
  h.desc <- desc;
  h.phys <- phys;
  h.ctrls := Array.map (fun p -> h.boot_ctrls.(p)) phys

let new_supervisor h desc =
  Supervisor.create ~platform:desc ~commands:h.commands ~envelope:5.0 ()

let enter_fallback h =
  if h.status <> Fallback then begin
    h.status <- Fallback;
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
      let prev = Supervisor.snapshot h.sup and prev_platform = h.desc in
      set_plant h (h.degradations @ [ d ]) plant;
      let t0 = Sys.time () in
      let sup = new_supervisor h h.desc in
      h.resynth_s <- Sys.time () -. t0;
      Supervisor.adopt sup ~prev ~prev_platform;
      h.sup <- sup;
      h.reconfigs <- h.reconfigs + 1;
      Obs.Counters.incr c_reconfigs;
      h.status <- Swapping;
      h.swap_left <- swap_ticks;
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
  if believed_dead then h.dead.(p) <- true;
  if not h.excluded.(p) then
    if p = h.host_phys then enter_fallback h
    else
      match desc_index_of_phys h p with
      | -1 -> ()
      | j ->
          if degrade h (Platform_desc.Remove_cluster j) then begin
            h.excluded.(p) <- true;
            Guarded.set_power_masked (guard h) ~cluster:p true
          end

let handle_finding h = function
  | Fdir.Cluster_down p -> remove_cluster h p ~believed_dead:true
  | Fdir.Power_sensor_down p -> remove_cluster h p ~believed_dead:false
  | Fdir.Qos_sensor_down -> enter_fallback h
  | Fdir.Dvfs_latched p ->
      if h.pinned_freq.(p) = None && not h.excluded.(p) then begin
        match desc_index_of_phys h p with
        | -1 -> ()
        | j ->
            let f = h.last_applied_freq.(p) in
            (* Cluster set unchanged: controllers and the
               description->physical map carry over as-is. *)
            if degrade h (Platform_desc.Pin_opp { cluster = j; freq_mhz = f })
            then h.pinned_freq.(p) <- Some f
      end

(* One physical-cluster actuation.  Guarded, the OPP/core count read back
   from the platform must match the sanitized expectation, and the
   verdict feeds the watchdog and the FDIR detector.  A cluster whose
   DVFS rail is known-latched is expected to read back its latched
   frequency — the rail ignoring requests is no longer a fault once the
   plant has been re-synthesized around it. *)
let actuate h soc p ~freq_ghz ~cores ~now =
  let requested = Manager.command_cluster soc p ~freq_ghz ~cores in
  match h.guard with
  | None -> ()
  | Some g -> (
      let freq = Soc.frequency soc p in
      h.last_applied_freq.(p) <- freq;
      let expected_freq =
        match h.pinned_freq.(p) with Some f -> f | None -> requested
      in
      let ok =
        freq = expected_freq
        && Soc.active_cores soc p
           = Manager.sanitize_cores ~max_cores:(Soc.cluster_cores soc p) cores
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
let floor_all h soc ~now =
  for p = 0 to Array.length h.dead - 1 do
    if not h.dead.(p) then actuate h soc p ~freq_ghz:0.2 ~cores:1. ~now
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
  | Some fd when h.status <> Fallback -> (
      match Fdir.poll fd with
      | [] -> ()
      | findings -> List.iter (handle_finding h) findings)
  | _ -> ());
  let tick = h.tick in
  h.tick <- tick + 1;
  match h.status with
  | Fallback -> floor_all h soc ~now
  | Swapping ->
      Obs.Counters.incr c_swap_ticks;
      floor_all h soc ~now;
      h.swap_left <- h.swap_left - 1;
      if h.swap_left <= 0 then begin
        h.status <- Reconfigured;
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
            actuate h soc p ~freq_ghz:u.(0) ~cores:u.(1) ~now
          done;
          (* A live cluster removed from the plant (dead power sensor)
             stays pinned to its floor. *)
          for p = 0 to Array.length h.excluded - 1 do
            if h.excluded.(p) && not h.dead.(p) then
              actuate h soc p ~freq_ghz:0.2 ~cores:1. ~now
          done)

(* Everything a checkpoint carries: the applied degradations (the
   supervised description is re-derived from them), every layer's
   snapshot, all boot-time controllers, the tick phase and the ladder
   rung. *)
type state = {
  s_degradations : Platform_desc.degradation list;
  s_sup : Supervisor.snapshot;
  s_guard : Guarded.snapshot option;
  s_fdir : Fdir.snapshot option;
  s_ctrls : Mimo.snapshot array;
  s_tick : int;
  s_status : status;
  s_swap_left : int;
  s_reconfigs : int;
  s_excluded : bool array;
  s_dead : bool array;
  s_pinned_freq : int option array;
  s_last_applied_freq : int array;
}

let snapshot h () =
  {
    s_degradations = h.degradations;
    s_sup = Supervisor.snapshot h.sup;
    s_guard = Option.map Guarded.snapshot h.guard;
    s_fdir = Option.map Fdir.snapshot h.fdir;
    s_ctrls = Array.map Mimo.snapshot h.boot_ctrls;
    s_tick = h.tick;
    s_status = h.status;
    s_swap_left = h.swap_left;
    s_reconfigs = h.reconfigs;
    s_excluded = Array.copy h.excluded;
    s_dead = Array.copy h.dead;
    s_pinned_freq = Array.copy h.pinned_freq;
    s_last_applied_freq = Array.copy h.last_applied_freq;
  }

(* Restore re-derives the supervised description from the boot one; the
   supervisor is rebuilt (through the warm synthesis cache) only when
   that description differs from the live one.  Controllers are restored
   after, overwriting the budgets a fresh supervisor pushes. *)
let restore h s =
  let k0 = Array.length h.boot_ctrls in
  (* The variant tag already rules a layer mismatch out, but a corrupted
     payload must not half-restore. *)
  let same a b = Option.is_some a = Option.is_some b in
  if
    Array.length s.s_ctrls <> k0
    || not (same s.s_guard h.guard && same s.s_fdir h.fdir)
  then invalid_arg "Spectr_manager.restore: checkpoint does not fit the manager";
  if s.s_degradations <> h.degradations then begin
    set_plant h s.s_degradations
      (List.fold_left degrade_plant (h.boot, Array.init k0 Fun.id)
         s.s_degradations);
    h.sup <- (if s.s_degradations = [] then h.boot_sup else new_supervisor h h.desc)
  end;
  Array.iteri (fun i c -> Mimo.restore h.boot_ctrls.(i) c) s.s_ctrls;
  Supervisor.restore h.sup s.s_sup;
  Option.iter (fun g -> Guarded.restore g (Option.get s.s_guard)) h.guard;
  Option.iter (fun fd -> Fdir.restore fd (Option.get s.s_fdir)) h.fdir;
  h.tick <- s.s_tick;
  h.status <- s.s_status;
  h.swap_left <- s.s_swap_left;
  h.reconfigs <- s.s_reconfigs;
  Array.blit s.s_excluded 0 h.excluded 0 k0;
  Array.blit s.s_dead 0 h.dead 0 k0;
  Array.blit s.s_pinned_freq 0 h.pinned_freq 0 k0;
  Array.blit s.s_last_applied_freq 0 h.last_applied_freq 0 k0

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
      degradations = [];
      phys = Array.init k0 Fun.id;
      ctrls;
      sup = boot_sup;
      excluded = Array.make k0 false;
      dead = Array.make k0 false;
      pinned_freq = Array.make k0 None;
      last_applied_freq = Array.make k0 0;
      tick = 0;
      status = Nominal;
      swap_left = 0;
      reconfigs = 0;
      resynth_s = 0.;
    }
  in
  (* The variant tag encodes the layers, gain scheduling and — off the
     reference platform — the boot platform digest, so a checkpoint can't
     cross ablation variants or platforms. *)
  let variant =
    let base = if gain_scheduling then name else name ^ "-nogs" in
    if Design_flow.is_reference_platform platform then base
    else base ^ "@" ^ String.sub (Platform_desc.digest platform) 0 12
  in
  let persist =
    Manager.make_persist ~variant ~snapshot:(snapshot h) ~restore:(restore h)
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
