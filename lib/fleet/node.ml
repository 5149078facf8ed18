open Spectr_platform

type config = { node_tdp : float; cap_floor : float }

let default_config = { node_tdp = 5.0; cap_floor = 1.0 }

(* Warm-up runs [boot_ticks] periods at the paper's controller period
   regardless of the fleet's tick length: boot is a property of the
   node, not of whoever is driving it. *)
let boot_ticks = 40
let boot_dt = 0.05

type item = { tasks : int; mutable left : int }

(* [acc]'s slots: the last tick's true power; the epoch's summed true
   power, sensed power, QoS rate and QoS debt, drained by [report]; the
   lifetime QoS debt; and the cap in force, set every epoch. *)
let a_last_power = 0
let a_power = 1
let a_sensor = 2
let a_qos = 3
let a_debt = 4
let a_total_debt = 5
let a_cap = 6

(* A report's floats sit in a record of floats only, which OCaml stores
   flat: refreshing them boxes nothing, where a mutable float field of
   the mixed [report] record would box on every write. *)
type measures = {
  mutable r_max_power : float;
  mutable r_cap : float;
  mutable r_power : float;
  mutable r_sensor_power : float;
  mutable r_qos : float;
  r_qos_ref : float;
  mutable r_debt : float;
  mutable r_total_debt : float;
}

type report = {
  r_id : int;
  r_workload : string;
  mutable r_alive : bool;
  mutable r_background : int;
  mutable r_kills : int;
  mutable r_restarts : int;
  r_m : measures;
}

type t = {
  id : int;
  config : config;
  seed : int64;
  workload : Workload.t;
  platform : Platform_desc.t;
  qos_ref : float;
  reconfigurable : bool;
  full_power_est : float; (* healthy-description capacity anchor *)
  mutable reconfig : Spectr.Spectr_manager.Reconfig.handle option;
  mutable soc : Soc.t;
  mutable hb : Heartbeats.t;
  mutable manager : Spectr.Manager.t;
  mutable alive : bool;
  mutable items : item list;
  mutable bg : int;
  obs : Soc.observation;
  truth : float array; (* [Soc.ground_truth]: chip power, QoS rate *)
  (* The per-tick and per-epoch floats, slotted by the [a_*] indices
     above: a flat float array stores them unboxed, where a float field
     of this mixed record would hold a box until the next minor
     collection promoted it. *)
  acc : float array;
  (* epoch ticks, drained by [report] *)
  mutable e_ticks : int;
  (* lifetime *)
  mutable kills : int;
  mutable restarts : int;
  saved : Spectr.Manager.checkpoint; (* rewritten in place by [checkpoint] *)
  rep : report; (* refreshed in place by [report] *)
}

let make_soc t generation =
  (* Reseed each life: SplitMix-style mix of the node seed and the
     restart generation, so a rebooted node's noise stream is
     deterministic but independent of its previous life. *)
  let seed =
    Int64.add t
      (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (generation + 1)))
  in
  fun platform workload ->
    let soc =
      Soc.create
        ~config:{ (Soc.config_of platform) with seed }
        ~platform ~qos:workload ()
    in
    (* Boot throttled: a node comes up at the lowest OPP and lets its
       manager ramp it.  Booting at the mid-range default made every
       fleet start (and every reboot) a synchronized power spike that
       transiently broke the global cap through no fault of the
       coordinator. *)
    for i = 0 to Soc.num_clusters soc - 1 do
      ignore (Soc.set_frequency soc i 0.)
    done;
    soc

let make_manager ~reconfigurable platform =
  let manager, _, _, handle =
    Spectr.Variant.(make platform (if reconfigurable then Spectr_r else Spectr))
  in
  (manager, handle)

let create ?(config = default_config)
    ?(platform = Platform_desc.exynos5422) ?(reconfigurable = false) ~id
    ~seed ~workload () =
  if config.node_tdp <= 0. || config.cap_floor <= 0. then
    invalid_arg "Node.create: non-positive tdp/floor";
  let qos_ref = Spectr.Scenario.default_qos_ref platform workload in
  let soc = (make_soc seed 0) platform workload in
  let manager, reconfig = make_manager ~reconfigurable platform in
  let acc = Array.make (a_cap + 1) 0. in
  acc.(a_cap) <- config.node_tdp;
  {
    id;
    config;
    seed;
    workload;
    platform;
    qos_ref;
    reconfigurable;
    full_power_est = Platform_desc.max_power_estimate platform;
    reconfig;
    soc;
    hb = Spectr.Scenario.heartbeat_monitor ~qos_ref;
    manager;
    alive = true;
    items = [];
    bg = 0;
    obs = Soc.make_observation ();
    truth = Array.make 2 0.;
    acc;
    e_ticks = 0;
    kills = 0;
    restarts = 0;
    saved = Spectr.Manager.empty_checkpoint ();
    rep =
      {
        r_id = id;
        r_workload = workload.Workload.name;
        r_alive = true;
        r_background = 0;
        r_kills = 0;
        r_restarts = 0;
        r_m =
          {
            r_max_power = 0.;
            r_cap = 0.;
            r_power = 0.;
            r_sensor_power = 0.;
            r_qos = 0.;
            r_qos_ref = qos_ref;
            r_debt = 0.;
            r_total_debt = 0.;
          };
      };
  }

let id t = t.id
let workload_name t = t.workload.Workload.name
let qos_ref t = t.qos_ref
let alive t = t.alive
let cap t = t.acc.(a_cap)
let background t = t.bg
let last_true_power t = t.acc.(a_last_power)
let kills t = t.kills
let restarts t = t.restarts
let reconfig_handle t = t.reconfig

(* Degraded capacity: the most the node's {e current} (possibly
   degraded) description can draw, as a fraction of the healthy
   description's estimate, scaled onto the chip TDP.  A healthy node
   reports exactly [node_tdp]; a node that reconfigured around a dead
   cluster reports less, and the coordinator stops budgeting power the
   silicon can no longer convert into work.  Inlined, so [report]
   stores a healthy node's capacity without boxing it. *)
let[@inline] max_power t =
  match t.reconfig with
  | None -> t.config.node_tdp
  | Some h ->
      let est =
        Platform_desc.max_power_estimate
          (Spectr.Spectr_manager.Reconfig.platform h)
      in
      let frac =
        if t.full_power_est > 0. then Float.min 1. (est /. t.full_power_est)
        else 1.
      in
      Float.max t.config.cap_floor (t.config.node_tdp *. frac)

let inject_permanent t kind =
  if not (Faults.is_permanent kind) then
    invalid_arg "Node.inject_permanent: not a permanent fault kind";
  if t.alive then begin
    let now = t.obs.Soc.time in
    let prev =
      match Soc.faults t.soc with None -> [] | Some f -> Faults.injections f
    in
    Soc.set_faults t.soc
      (Some (Faults.create (prev @ [ Faults.permanent kind ~start_s:now ])))
  end

let set_cap t cap =
  t.acc.(a_cap) <-
    Float.min t.config.node_tdp (Float.max t.config.cap_floor cap)

let recompute_bg t =
  let bg = List.fold_left (fun acc it -> acc + it.tasks) 0 t.items in
  if bg <> t.bg then begin
    t.bg <- bg;
    if t.alive then Soc.set_background_tasks t.soc bg
  end

let add_load t ~tasks ~duration_ticks =
  if tasks < 0 || duration_ticks <= 0 then
    invalid_arg "Node.add_load: tasks < 0 or duration_ticks <= 0";
  t.items <- { tasks; left = duration_ticks } :: t.items;
  recompute_bg t

let expire_items t =
  let any_expired = ref false in
  List.iter
    (fun it ->
      it.left <- it.left - 1;
      if it.left <= 0 then any_expired := true)
    t.items;
  if !any_expired then begin
    t.items <- List.filter (fun it -> it.left > 0) t.items;
    recompute_bg t
  end

(* The scenario's closed loop under the node's current cap: counted
   ticks and the uncounted boot warm-up share it. *)
let close_loop t ~dt =
  Spectr.Scenario.close_loop t.soc t.hb t.obs ~manager:t.manager ~dt
    ~qos_ref:t.qos_ref ~envelope:t.acc.(a_cap)

let warm_up t =
  if t.alive then
    for _ = 1 to boot_ticks do
      close_loop t ~dt:boot_dt
    done

let tick t ~dt =
  if t.alive then begin
    expire_items t;
    close_loop t ~dt;
    Soc.ground_truth t.soc t.truth;
    let tp = t.truth.(0) in
    let obs = t.obs and acc = t.acc in
    acc.(a_last_power) <- tp;
    acc.(a_power) <- acc.(a_power) +. tp;
    acc.(a_sensor) <- acc.(a_sensor) +. obs.Soc.chip_power;
    acc.(a_qos) <- acc.(a_qos) +. obs.Soc.qos_rate;
    let shortfall =
      Float.max 0. ((t.qos_ref -. obs.Soc.qos_rate) /. t.qos_ref)
    in
    acc.(a_debt) <- acc.(a_debt) +. (shortfall *. dt);
    acc.(a_total_debt) <- acc.(a_total_debt) +. (shortfall *. dt)
  end
  else begin
    (* Dead: the work queue still drains real time, the node serves
       nothing and draws nothing. *)
    expire_items t;
    let acc = t.acc in
    acc.(a_last_power) <- 0.;
    acc.(a_debt) <- acc.(a_debt) +. dt;
    acc.(a_total_debt) <- acc.(a_total_debt) +. dt
  end;
  t.e_ticks <- t.e_ticks + 1

let checkpoint t =
  match t.manager.Spectr.Manager.persist with
  | Some p -> p.Spectr.Manager.save t.saved
  | None -> ()

let kill t =
  if t.alive then begin
    t.alive <- false;
    t.kills <- t.kills + 1;
    t.acc.(a_last_power) <- 0.
  end

let restart t =
  if not t.alive then begin
    t.restarts <- t.restarts + 1;
    t.soc <- (make_soc t.seed t.restarts) t.platform t.workload;
    t.hb <- Spectr.Scenario.heartbeat_monitor ~qos_ref:t.qos_ref;
    Soc.set_background_tasks t.soc t.bg;
    (* The manager daemon restarts from scratch and restores its last
       persisted checkpoint — the chaos engine's kill-drill mechanics at
       node granularity.  Never-checkpointed nodes come back cold. *)
    let manager, reconfig =
      make_manager ~reconfigurable:t.reconfigurable t.platform
    in
    t.manager <- manager;
    (* A restart is new hardware: the fault schedule does not carry
       over, and a reconfigurable node comes back on the full healthy
       description with its FDIR starting from scratch — so it skips the
       checkpoint, which would re-apply the old silicon's degradations. *)
    t.reconfig <- reconfig;
    (match manager.Spectr.Manager.persist with
    | Some p when not t.reconfigurable -> p.Spectr.Manager.restore t.saved
    | _ -> ());
    t.alive <- true;
    (* A rebooting node stabilizes under its current cap before it
       rejoins the reported fleet — admission control, not accounting
       fiction: its uncounted boot second is exactly the window a real
       cluster holds a node out of the load balancer. *)
    warm_up t
  end

let report t =
  let n = float_of_int t.e_ticks in
  let r = t.rep and acc = t.acc in
  let m = r.r_m in
  r.r_alive <- t.alive;
  r.r_background <- t.bg;
  r.r_kills <- t.kills;
  r.r_restarts <- t.restarts;
  m.r_max_power <- max_power t;
  m.r_cap <- acc.(a_cap);
  (* Epoch means; 0 with no ticks since the last report. *)
  m.r_power <- (if n = 0. then 0. else acc.(a_power) /. n);
  m.r_sensor_power <- (if n = 0. then 0. else acc.(a_sensor) /. n);
  m.r_qos <- (if n = 0. then 0. else acc.(a_qos) /. n);
  m.r_debt <- acc.(a_debt);
  m.r_total_debt <- acc.(a_total_debt);
  t.e_ticks <- 0;
  Array.fill acc a_power (a_debt - a_power + 1) 0.;
  r
