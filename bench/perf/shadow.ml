(* Shadow instances of the layers a manager and the scenario runner hide.

   The kernels inside [Manager.t.step] and [Scenario.tick] are not
   reachable from outside the library.  A shadow is a second instance of
   each hidden layer — SoC, heartbeat monitor, trace, supervisor, MIMO
   leaf controllers, guard, FDIR detector — built through the same
   public constructors and fed, every tick, the live run's inputs: the
   observation [Scenario.tick] returned, the live sensor arrays, and the
   live SoC's OPPs, core counts and background load mirrored onto the
   shadow SoC.  Timing a shadow call therefore times the layer's code on
   the inputs the live instance saw, not the live instance itself.  The
   live run is never touched, so its outputs stay byte-identical. *)

open Spectr_platform
module S = Spectr

type kind =
  | Spectr_family of { guard : bool; fdir : bool }
  | Mm of string  (** Initial gain label. *)
  | Fs
  | Siso

let h_soc = Tracer.handle "soc.step_into"
let h_hb = Tracer.handle "heartbeats"
let h_trace = Tracer.handle "trace.add"
let h_sup = Tracer.handle "supervisor.step"
let h_mimo = Tracer.handle "mimo.step_into"
let h_guard = Tracer.handle "guarded.filter"
let h_fdir = Tracer.handle "fdir.observe"

type t = {
  soc : Soc.t;
  obs : Soc.observation;
  hb : Heartbeats.t;
  trace : Trace.t;
  row : float array;
  k : int;
  host : int;
  dt : float;
  sup : S.Supervisor.t option;
  mimos : Spectr_control.Mimo.t array;
  meas : float array array;
  cmd : float array array;
  fs : bool;
  guard : S.Guarded.t option;
  fdir : S.Fdir.t option;
  leaves : Tracer.handle;  (** Span around one tick's leaf calls. *)
  mutable tick : int;
}

let goals =
  [
    { S.Design_flow.label = "qos"; q_y = S.Mm.qos_weights };
    { S.Design_flow.label = "power"; q_y = S.Mm.power_weights };
  ]

let design subsystem goals =
  match S.Design_flow.design_gains_for ~seed:17L subsystem goals with
  | Ok g -> g
  | Error msg -> failwith ("shadow: " ^ msg)

(* One leaf controller per cluster, with the references and initial gain
   set the live manager starts from. *)
let cluster_mimos platform ~initial ~refs_for =
  Array.init (Platform_desc.num_clusters platform) (fun i ->
      let sub = S.Design_flow.cluster_subsystem platform i in
      S.Design_flow.build_mimo
        (S.Design_flow.identify ~seed:17L sub)
        ~gains:(design sub goals) ~initial ~refs:(refs_for i))

let create kind ~label (config : S.Scenario.config) =
  let platform = config.S.Scenario.platform in
  let k = Platform_desc.num_clusters platform in
  let host = Platform_desc.host platform in
  let soc =
    Soc.create
      ~config:{ (Soc.config_of platform) with seed = config.S.Scenario.seed }
      ~platform ~qos:config.S.Scenario.workload ()
  in
  let columns = S.Scenario.columns_of platform in
  let mimos, fs =
    match kind with
    | Spectr_family _ ->
        ( cluster_mimos platform ~initial:"qos" ~refs_for:(fun i ->
              if i = host then [| 60.; 4. |] else [| 2.0; 0.3 |]),
          false )
    | Mm label ->
        let secondary = if label = "qos" then 3.0 else 0.0 in
        ( cluster_mimos platform ~initial:label ~refs_for:(fun i ->
              if i = host then [| 60.; 4. |]
              else [| secondary; S.Mm.little_power_budget |]),
          false )
    | Fs ->
        let goal = [ { S.Design_flow.label = "power"; q_y = [| 0.1; 30. |] } ] in
        ( [|
            S.Design_flow.build_mimo
              (S.Design_flow.identify ~seed:17L S.Design_flow.Fs_4x2)
              ~gains:(design S.Design_flow.Fs_4x2 goal) ~initial:"power"
              ~refs:[| 60.; 5. |];
          |],
          true )
    | Siso -> ([||], false)
  in
  let sup =
    match kind with
    | Spectr_family _ ->
        let commands =
          {
            S.Supervisor.switch_gains =
              (fun l -> Array.iter (fun m -> Spectr_control.Mimo.switch_gains m l) mimos);
            set_power_ref =
              (fun i v -> Spectr_control.Mimo.set_reference mimos.(i) ~index:1 v);
          }
        in
        Some (S.Supervisor.create ~platform ~commands ~envelope:5.0 ())
    | _ -> None
  in
  let guard, fdir =
    match kind with
    | Spectr_family { guard; fdir } ->
        ( (if guard then Some (S.Guarded.create ~clusters:k ()) else None),
          if fdir then Some (S.Fdir.create ~k ~host ()) else None )
    | _ -> (None, None)
  in
  {
    soc;
    obs = Soc.make_observation ();
    hb = Heartbeats.create ~window:0.25 ~reference:config.S.Scenario.qos_ref ();
    trace =
      Trace.create ~cap:(max 1 (S.Scenario.total_ticks config)) ~columns ();
    row = Array.make (List.length columns) 0.;
    k;
    host;
    dt = config.S.Scenario.controller_period;
    sup;
    mimos;
    meas = Array.map (fun _ -> [| 0.; 0. |]) mimos;
    cmd = Array.map (fun _ -> Array.make (if fs then 4 else 2) 0.) mimos;
    fs;
    guard;
    fdir;
    leaves = Tracer.handle ("leaves." ^ label);
    tick = 0;
  }

(* Shadow one tick of the live run: [obs] is what [Scenario.tick]
   returned for [live], with [qos_ref] and [envelope] the manager's
   arguments of that tick. *)
let tick t ~live ~(obs : Soc.observation) ~qos_ref ~envelope =
  for i = 0 to t.k - 1 do
    ignore (Soc.set_frequency t.soc i (float_of_int (Soc.frequency live i)));
    Soc.set_active_cores t.soc i (Soc.active_cores live i)
  done;
  Soc.set_background_tasks t.soc (Soc.background_tasks live);
  Tracer.enter h_soc;
  Soc.step_into t.soc ~dt:t.dt t.obs;
  Tracer.leave ();
  Tracer.enter h_hb;
  Heartbeats.beat t.hb ~now:obs.Soc.time ~count:(obs.Soc.qos_rate *. t.dt);
  ignore (Heartbeats.rate t.hb ~now:obs.Soc.time : float);
  Tracer.leave ();
  t.row.(0) <- obs.Soc.time;
  t.row.(1) <- obs.Soc.qos_rate;
  t.row.(3) <- obs.Soc.chip_power;
  Tracer.enter h_trace;
  Trace.add t.trace t.row;
  Tracer.leave ();
  let powers = Soc.sensor_powers live in
  let ips = Soc.ips_totals live in
  Tracer.enter t.leaves;
  let qos =
    match t.guard with
    | None -> obs.Soc.qos_rate
    | Some g ->
        Tracer.enter h_guard;
        let f = S.Guarded.filter g ~now:obs.Soc.time ~qos:obs.Soc.qos_rate ~powers in
        Tracer.leave ();
        f.S.Guarded.qos
  in
  (match t.fdir with
  | None -> ()
  | Some fd ->
      Tracer.enter h_fdir;
      S.Fdir.observe fd ~qos:obs.Soc.qos_rate ~powers ~ips;
      Tracer.leave ());
  (match t.sup with
  | Some sup when t.tick mod 2 = 0 ->
      let total = ref 0. in
      for i = 0 to t.k - 1 do
        total := !total +. powers.(i)
      done;
      Tracer.enter h_sup;
      S.Supervisor.step sup ~qos ~qos_ref ~power:!total ~envelope;
      Tracer.leave ()
  | _ -> ());
  for i = 0 to Array.length t.mimos - 1 do
    let meas = t.meas.(i) in
    if t.fs then begin
      meas.(0) <- obs.Soc.qos_rate;
      meas.(1) <- obs.Soc.chip_power
    end
    else begin
      meas.(0) <- (if i = t.host then qos else ips.(i) /. 1e9);
      meas.(1) <- powers.(i)
    end;
    Tracer.enter h_mimo;
    Spectr_control.Mimo.step_into t.mimos.(i) ~measured:meas ~dst:t.cmd.(i);
    Tracer.leave ()
  done;
  Tracer.leave ();
  t.tick <- t.tick + 1
