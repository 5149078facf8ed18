open Spectr_linalg
open Spectr_platform
module Obs = Spectr_obs

type spec = {
  nodes : int;
  epochs : int;
  ticks_per_epoch : int;
  dt : float;
  seed : int;
  global_cap : float;
  policy : Coordinator.policy;
  node_config : Node.config;
  arrival_rate : float;
  kill_rate : float;
  down_epochs : int;
  shard_size : int;
  platforms : Platform_desc.t array;
}

let default_spec =
  {
    nodes = 64;
    epochs = 20;
    ticks_per_epoch = 50;
    dt = 0.05;
    seed = 42;
    global_cap = 64. *. 2.5;
    policy = Coordinator.Water_filling;
    node_config = Node.default_config;
    arrival_rate = 2.;
    kill_rate = 0.5;
    down_epochs = 2;
    shard_size = 64;
    platforms = [| Platform_desc.exynos5422 |];
  }

type result = {
  total_ticks : int;
  peak_fleet_power : float;
  mean_fleet_power : float;
  violation_ticks : int;
  qos_attainment : float;
  total_debt : float;
  placements : int;
  kills : int;
  restarts : int;
  digest : string;
}

(* Observability handles, bound once. *)
let c_epochs = Obs.Counters.counter "fleet.epochs"
let c_ticks = Obs.Counters.counter "fleet.ticks"
let c_kills = Obs.Counters.counter "fleet.kills"
let c_restarts = Obs.Counters.counter "fleet.restarts"
let c_placements = Obs.Counters.counter "fleet.placements"
let c_moves = Obs.Counters.counter "fleet.rebudget_moves"
let g_nodes = Obs.Counters.gauge "fleet.nodes"
let g_cap = Obs.Counters.gauge "fleet.global_cap"
let g_peak = Obs.Counters.gauge "fleet.peak_power"
let h_epoch = Obs.Histogram.histogram "fleet.epoch_ns"

let validate spec =
  let bad name = invalid_arg (Printf.sprintf "Fleet.run: non-positive %s" name) in
  if spec.nodes <= 0 then bad "nodes";
  if spec.epochs <= 0 then bad "epochs";
  if spec.ticks_per_epoch <= 0 then bad "ticks_per_epoch";
  if spec.dt <= 0. then bad "dt";
  if spec.global_cap <= 0. then bad "global_cap";
  if spec.shard_size <= 0 then bad "shard_size";
  if spec.down_epochs <= 0 then bad "down_epochs";
  if spec.arrival_rate < 0. then bad "arrival_rate";
  if spec.kill_rate < 0. then bad "kill_rate";
  if Array.length spec.platforms = 0 then
    invalid_arg "Fleet.run: empty platforms"

(* One epoch's worth of ticking for shard [s]: the [shard_size] nodes
   from index [s * shard_size] (fewer in the last shard).  Node-outer,
   tick-inner: per-tick power lands in the shard's own row
   of [power] (tick [k] at [s * ticks + k]), summed by the caller in
   shard order, so the reduction order never depends on which domain
   ran which shard.  Each node then checkpoints and refreshes its report
   in place. *)
let tick_shard ~dt ~ticks ~nodes ~shard_size ~power ~reports s =
  let row = s * ticks in
  Array.fill power row ticks 0.;
  let from = s * shard_size in
  for i = from to min (from + shard_size) (Array.length nodes) - 1 do
    let node = nodes.(i) in
    for k = 0 to ticks - 1 do
      Node.tick node ~dt;
      power.(row + k) <- power.(row + k) +. Node.last_true_power node
    done;
    Node.checkpoint node;
    reports.(i) <- Node.report node
  done

(* The epoch's kill plan: pure function of (seed, epoch).  Victims are
   drawn fleet-wide; draws landing on dead nodes are wasted, which keeps
   the stream length fixed and the plan independent of simulation
   state. *)
let kill_plan ~spec ~epoch =
  let g = Prng.create (Prng.mix_seed (spec.seed lxor 0xC8A5) epoch) in
  let base = int_of_float spec.kill_rate in
  let frac = spec.kill_rate -. float_of_int base in
  let count = base + (if Prng.float g < frac then 1 else 0) in
  List.init count (fun _ -> Prng.int g spec.nodes)

let workload_for i =
  let all = Array.of_list Benchmarks.all_qos in
  all.(i mod Array.length all)

let run ?pool spec =
  validate spec;
  Obs.Counters.set g_nodes (float_of_int spec.nodes);
  Obs.Counters.set g_cap spec.global_cap;
  (* Synthesize each distinct description's supervisor here, on the
     calling domain, before any node is built.  [Events.for_platform]
     interns the description's event names and event ids follow intern
     order, so interning sequentially in platform order keeps every id
     (and every digest downstream) independent of the job count.  Every
     node's own [Supervisor.synthesize] is then a cache hit. *)
  let seen = Hashtbl.create 4 in
  Array.iter
    (fun platform ->
      let d = Platform_desc.digest platform in
      if not (Hashtbl.mem seen d) then begin
        Hashtbl.add seen d ();
        ignore (Spectr.Supervisor.synthesize ~platform ())
      end)
    spec.platforms;
  (* A coordinated fleet starts from an even split of the global budget
     — the coordinator admits nodes under the cap from tick one; only
     the uncoordinated baseline begins (and stays) at chip TDP. *)
  let even =
    spec.global_cap
    *. (1. -. Coordinator.default_headroom)
    /. float_of_int spec.nodes
  in
  (* Nodes are built, capped and warmed on the pool, one task per node:
     each node owns its SoC, seed and manager, and the shared memos
     (gain design, synthesis) are per-key single-flight, so the first
     nodes of different descriptions design their gains concurrently.
     Boot warm-up runs under the assigned cap: nodes join the reported
     fleet already stabilized, so tick 0 measures the coordinator, not
     a synchronized cold-start spike. *)
  let nodes =
    Spectr_exec.Parmap.map_array ?pool
      (fun i ->
        let node =
          Node.create ~config:spec.node_config
            ~platform:spec.platforms.(i mod Array.length spec.platforms)
            ~id:i ~seed:(Prng.mix_seed spec.seed i) ~workload:(workload_for i) ()
        in
        if spec.policy <> Coordinator.Uncoordinated then Node.set_cap node even;
        Node.warm_up node;
        node)
      (Array.init spec.nodes Fun.id)
  in
  let shard_count = (spec.nodes + spec.shard_size - 1) / spec.shard_size in
  let shards = List.init shard_count Fun.id in
  (* Everything that outlives an epoch is written in place: one row of
     per-tick power per shard, and one reports array holding each node's
     own report record, which every [Node.report] refreshes. *)
  let power = Array.make (shard_count * spec.ticks_per_epoch) 0. in
  let reports = Array.map Node.report nodes in
  let down = Array.make spec.nodes 0 in
  let allowance = Spectr.Metrics.power_allowance in
  let limit = spec.global_cap *. allowance in
  let peak = ref 0. in
  let power_sum = ref 0. in
  let violations = ref 0 in
  let attain_sum = ref 0. in
  let debt = ref 0. in
  let placements = ref 0 in
  let kills = ref 0 in
  let restarts = ref 0 in
  let canon = Buffer.create 4096 in
  for epoch = 0 to spec.epochs - 1 do
    Obs.time h_epoch (fun () ->
        (* Reboot nodes whose downtime expired, then apply this epoch's
           kill plan. *)
        Array.iteri
          (fun i d ->
            if d > 0 then begin
              down.(i) <- d - 1;
              if down.(i) = 0 then begin
                Node.restart nodes.(i);
                incr restarts;
                Obs.Counters.incr c_restarts
              end
            end)
          down;
        List.iter
          (fun v ->
            if Node.alive nodes.(v) then begin
              Node.kill nodes.(v);
              down.(v) <- spec.down_epochs;
              incr kills;
              Obs.Counters.incr c_kills
            end)
          (kill_plan ~spec ~epoch);
        (* Parallel tick, then ordered reduction: shard s's per-tick
           row is added in shard order, so fleet power at tick k is the
           same float for any job count. *)
        Spectr_exec.Parmap.iter ?pool
          (tick_shard ~dt:spec.dt ~ticks:spec.ticks_per_epoch ~nodes
             ~shard_size:spec.shard_size ~power ~reports)
          shards;
        let epoch_peak = ref 0. in
        let epoch_violations = ref 0 in
        for k = 0 to spec.ticks_per_epoch - 1 do
          let fleet_power = ref 0. in
          for s = 0 to shard_count - 1 do
            fleet_power :=
              !fleet_power +. power.((s * spec.ticks_per_epoch) + k)
          done;
          let p = !fleet_power in
          if p > !epoch_peak then epoch_peak := p;
          if p > !peak then peak := p;
          power_sum := !power_sum +. p;
          if p > limit then begin
            incr violations;
            incr epoch_violations
          end
        done;
        let epoch_debt = ref 0. in
        for i = 0 to spec.nodes - 1 do
          let m = reports.(i).Node.r_m in
          epoch_debt := !epoch_debt +. m.Node.r_debt;
          let a =
            if m.Node.r_qos_ref > 0. then
              Float.min 1. (m.Node.r_qos /. m.Node.r_qos_ref)
            else 0.
          in
          attain_sum := !attain_sum +. a
        done;
        debt := !debt +. !epoch_debt;
        (* Place this epoch's arrivals before re-budgeting, so new load
           shows up as background work the next epoch's demands see. *)
        let items =
          Arrivals.generate ~seed:spec.seed ~epoch ~rate:spec.arrival_rate
        in
        let assigned = Placer.assign ~reports items in
        List.iter
          (fun (i, it) ->
            Node.add_load nodes.(i) ~tasks:it.Arrivals.a_tasks
              ~duration_ticks:it.Arrivals.a_duration;
            incr placements;
            Obs.Counters.incr c_placements)
          assigned;
        let caps =
          Coordinator.rebudget ~policy:spec.policy ~global_cap:spec.global_cap
            ~config:spec.node_config
            ~epoch_s:(float_of_int spec.ticks_per_epoch *. spec.dt)
            reports
        in
        Array.iteri
          (fun i cap ->
            if cap <> Node.cap nodes.(i) then Obs.Counters.incr c_moves;
            Node.set_cap nodes.(i) cap)
          caps;
        Obs.Counters.incr c_epochs;
        Obs.Counters.add c_ticks spec.ticks_per_epoch;
        (* Canonical per-epoch line for the determinism digest.  Hex
           floats (%h) are exact — any reduction-order drift changes the
           digest. *)
        Buffer.add_string canon
          (Printf.sprintf "%d %h %h %d %d %d %d\n" epoch !epoch_peak
             !epoch_debt !epoch_violations !kills !restarts !placements))
  done;
  Obs.Counters.set g_peak !peak;
  let total_ticks = spec.epochs * spec.ticks_per_epoch in
  {
    total_ticks;
    peak_fleet_power = !peak;
    mean_fleet_power = !power_sum /. float_of_int total_ticks;
    violation_ticks = !violations;
    qos_attainment =
      !attain_sum /. float_of_int (spec.epochs * spec.nodes);
    total_debt = !debt;
    placements = !placements;
    kills = !kills;
    restarts = !restarts;
    digest = Digest.to_hex (Digest.string (Buffer.contents canon));
  }

let pp_result ppf r =
  Format.fprintf ppf
    "ticks %d  peak %.2f W  mean %.2f W  violations %d  qos %.4f  debt \
     %.2f s  placed %d  kills %d  restarts %d  digest %s"
    r.total_ticks r.peak_fleet_power r.mean_fleet_power r.violation_ticks
    r.qos_attainment r.total_debt r.placements r.kills r.restarts r.digest
