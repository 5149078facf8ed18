(* Workload [fleet]: [Fleet.run] with water-filling over an interleaved
   exynos5422/pixel8pro fleet, on an explicit pool of two jobs — the pool
   the fleet command uses under SPECTR_JOBS=2, so every epoch ticks its
   shards on both domains and waits at the epoch barrier.

   A round is one [Fleet.run], and the throughput is its node-ticks over
   its wall time.  Node construction and the boot warm-up happen inside
   [Fleet.run] and are included; the epochs carry most of the round.
   The fleet's peak RSS is about 39 MB against 17-19 MB for the
   single-chip workloads: some 20 MB of node state, five times the
   per-core L2 (well inside the shared L3), walked every epoch.  With 5
   ticks per epoch the epoch-boundary layers (checkpoint, report,
   placer, coordinator, restarts) carry a real share of the time.

   The traced section times those layers in a probe: an epoch loop of
   its own, built from the public Node, Arrivals, Placer and Coordinator
   calls in the order [Fleet] documents, with spans around each call.
   The probe draws its own seeds and kills, so it is not pinned to
   [Fleet.run]'s digest, and a change to [Fleet.run] cannot break it;
   [fleet.probe_gap_pct] says how far its wall time is from
   [Fleet.run]'s.  The count of cap changes comes from [Fleet.run]
   itself, through its observability counters. *)

open Spectr_platform
open Spectr_fleet

type size = { nodes : int; epochs : int; arrivals : float; kills : int }

let size ~smoke =
  if smoke then { nodes = 32; epochs = 6; arrivals = 2.; kills = 1 }
  else { nodes = 512; epochs = 120; arrivals = 8.; kills = 1 }

let spec ~smoke ~seed =
  let z = size ~smoke in
  {
    Fleet.default_spec with
    Fleet.nodes = z.nodes;
    epochs = z.epochs;
    ticks_per_epoch = 5;
    seed;
    global_cap = float_of_int z.nodes *. 2.5;
    arrival_rate = z.arrivals;
    kill_rate = float_of_int z.kills;
    platforms = [| Platform_desc.exynos5422; Platform_desc.pixel8pro |];
  }

let jobs = 2

(* --- the probe ---------------------------------------------------------- *)

let h_create = Tracer.handle "node.create"
let h_warm = Tracer.handle "node.warm_up"
let h_epoch = Tracer.handle ~hist:true "fleet.epoch"
let h_restart = Tracer.handle "node.restart"
let h_shards = Tracer.handle "fleet.tick_shards"
let h_tick = Tracer.handle "node.tick"
let h_checkpoint = Tracer.handle "node.checkpoint"
let h_report = Tracer.handle "node.report"
let h_placer = Tracer.handle "placer.assign"
let h_rebudget = Tracer.handle "coordinator.rebudget"

let tick_shard ~dt ~ticks shard =
  let t0 = Timer.now_ns () in
  let power = Array.make ticks 0. in
  Array.iter
    (fun node ->
      for k = 0 to ticks - 1 do
        Tracer.enter h_tick;
        Node.tick node ~dt;
        Tracer.leave ();
        power.(k) <- power.(k) +. Node.last_true_power node
      done;
      Tracer.enter h_checkpoint;
      Node.checkpoint node;
      Tracer.leave ())
    shard;
  let reports =
    Array.map (fun n -> Tracer.span h_report (fun () -> Node.report n)) shard
  in
  (power, reports, Timer.now_ns () - t0)

type probe = { digest : string; imbalance : float }

(* One fleet life from public calls: build and warm the nodes, then per
   epoch restart the nodes whose downtime ran out, kill this epoch's
   victims, tick every shard on the pool (checkpoint and report at the
   end of each shard), place the arrivals and re-budget the caps.
   Returns a digest of the fleet power of every tick and the shard
   imbalance: the mean over epochs of the slowest shard's
   time over the mean shard's. *)
let probe ~pool (spec : Fleet.spec) =
  let workloads = Array.of_list Benchmarks.all_qos in
  let n = spec.Fleet.nodes in
  let nodes =
    Array.init n (fun i ->
        Tracer.span h_create (fun () ->
            Node.create ~config:spec.Fleet.node_config
              ~platform:spec.Fleet.platforms.(i mod Array.length spec.Fleet.platforms)
              ~id:i ~seed:(Wl.mix_seed spec.Fleet.seed i)
              ~workload:workloads.(i mod Array.length workloads)
              ()))
  in
  let even =
    spec.Fleet.global_cap *. (1. -. Coordinator.default_headroom) /. float_of_int n
  in
  Array.iter (fun node -> Node.set_cap node even) nodes;
  Array.iter (fun node -> Tracer.span h_warm (fun () -> Node.warm_up node)) nodes;
  let size = spec.Fleet.shard_size in
  let shards =
    Array.init ((n + size - 1) / size) (fun s ->
        Array.sub nodes (s * size) (min size (n - (s * size))))
  in
  let kills = Spectr_linalg.Prng.create (Wl.mix_seed spec.Fleet.seed (-1)) in
  let down = Array.make n 0 in
  let ticks = spec.Fleet.ticks_per_epoch in
  let imbalance = ref 0. in
  let canon = Buffer.create 4096 in
  for epoch = 0 to spec.Fleet.epochs - 1 do
    Tracer.enter h_epoch;
    Array.iteri
      (fun i d ->
        if d > 0 then begin
          down.(i) <- d - 1;
          if down.(i) = 0 then Tracer.span h_restart (fun () -> Node.restart nodes.(i))
        end)
      down;
    for _ = 1 to int_of_float spec.Fleet.kill_rate do
      let v = Spectr_linalg.Prng.int kills n in
      if Node.alive nodes.(v) then begin
        Node.kill nodes.(v);
        down.(v) <- spec.Fleet.down_epochs
      end
    done;
    let results =
      Tracer.span h_shards (fun () ->
          Spectr_exec.Parmap.map_array ~pool (tick_shard ~dt:spec.Fleet.dt ~ticks) shards)
    in
    let shard_ns = Array.map (fun (_, _, ns) -> float_of_int ns) results in
    let mean_ns = Array.fold_left ( +. ) 0. shard_ns /. float_of_int (Array.length shard_ns) in
    imbalance := !imbalance +. (Array.fold_left Float.max 0. shard_ns /. mean_ns);
    for k = 0 to ticks - 1 do
      let p = Array.fold_left (fun a (power, _, _) -> a +. power.(k)) 0. results in
      Buffer.add_string canon (Printf.sprintf "%h " p)
    done;
    let reports = Array.concat (Array.to_list (Array.map (fun (_, r, _) -> r) results)) in
    let items =
      Arrivals.generate ~seed:spec.Fleet.seed ~epoch ~rate:spec.Fleet.arrival_rate
    in
    let assigned = Tracer.span h_placer (fun () -> Placer.assign ~reports items) in
    List.iter
      (fun (i, it) ->
        Node.add_load nodes.(i) ~tasks:it.Arrivals.a_tasks
          ~duration_ticks:it.Arrivals.a_duration)
      assigned;
    let caps =
      Tracer.span h_rebudget (fun () ->
          Coordinator.rebudget ~policy:spec.Fleet.policy ~global_cap:spec.Fleet.global_cap
            ~config:spec.Fleet.node_config
            ~epoch_s:(float_of_int ticks *. spec.Fleet.dt)
            reports)
    in
    Array.iteri (fun i cap -> Node.set_cap nodes.(i) cap) caps;
    Buffer.add_char canon '\n';
    Tracer.leave ()
  done;
  {
    digest = Digest.to_hex (Digest.string (Buffer.contents canon));
    imbalance = !imbalance /. float_of_int spec.Fleet.epochs;
  }

(* --- workload ---------------------------------------------------------- *)

let make ~smoke ~seed =
  let spec = spec ~smoke ~seed in
  let one = { spec with Fleet.epochs = 1 } in
  let pool = lazy (Spectr_exec.Pool.create ~jobs ()) in
  let set_up () = ignore (Fleet.run ~pool:(Lazy.force pool) one : Fleet.result) in
  let node_ticks = spec.Fleet.nodes * spec.Fleet.ticks_per_epoch * spec.Fleet.epochs in
  let round () =
    let r, seconds = Timer.timed (fun () -> Fleet.run ~pool:(Lazy.force pool) spec) in
    {
      Wl.units = float_of_int node_ticks;
      seconds;
      attempted = spec.Fleet.epochs * spec.Fleet.ticks_per_epoch;
      failed = r.Fleet.violation_ticks;
      outputs = r.Fleet.digest;
    }
  in
  let prepare () =
    (* Design both platforms' controllers before the first timed round. *)
    ignore (Fleet.run ~pool:(Lazy.force pool) { one with Fleet.nodes = 2 } : Fleet.result);
    (round, [])
  in
  let traced () =
    let pool = Lazy.force pool in
    ignore (Fleet.run ~pool { one with Fleet.nodes = 2 } : Fleet.result);
    let r, f1 = Timer.timed (fun () -> Fleet.run ~pool spec) in
    let fleet_s = Float.min f1 (snd (Timer.timed (fun () -> Fleet.run ~pool spec))) in
    (* Cap changes the coordinator made, counted by [Fleet.run] itself. *)
    let observed, moves =
      Wl.with_obs (fun () ->
          let o = Fleet.run ~pool spec in
          (o, Wl.counter "fleet.rebudget_moves"))
    in
    let (plain, p, timing), aggs =
      Wl.with_tracing (fun () ->
          let pass () = Timer.timed (fun () -> probe ~pool spec) in
          let passes = Wl.time_passes ~plain:pass ~traced:pass in
          (passes, Tracer.snapshot ()))
    in
    let mean name scale = Wl.mean_of aggs name scale in
    {
      Wl.metrics =
        [
          ("node.create.us", mean "node.create" 1e6);
          ("node.warm_up.us", mean "node.warm_up" 1e6);
          ("node.tick.ns", mean "node.tick" 1e9);
          ("node.tick.bytes", Wl.bytes_of aggs "node.tick");
          ("node.checkpoint.ns", mean "node.checkpoint" 1e9);
          ("node.checkpoint.bytes", Wl.bytes_of aggs "node.checkpoint");
          ("node.report.ns", mean "node.report" 1e9);
          ("placer.assign.us", mean "placer.assign" 1e6);
          ("coordinator.rebudget.us", mean "coordinator.rebudget" 1e6);
          ("fleet.rebudget_moves", moves);
          ("node.restart.ms", mean "node.restart" 1e3);
          ("fleet.shard_imbalance", p.imbalance);
          ("fleet.epoch.ms.p50", Wl.pct_of aggs "fleet.epoch" 50. 1e3);
          ("fleet.epoch.ms.p90", Wl.pct_of aggs "fleet.epoch" 90. 1e3);
          ("fleet.probe_gap_pct", 100. *. (timing.Wl.untraced_s -. fleet_s) /. fleet_s);
        ];
      throughput = float_of_int node_ticks /. fleet_s;
      timing;
      t_attempted = spec.Fleet.epochs * spec.Fleet.ticks_per_epoch;
      t_failed = r.Fleet.violation_ticks;
      same_outputs = p.digest = plain.digest && observed.Fleet.digest = r.Fleet.digest;
      report = [];
    }
  in
  { Wl.name = "fleet"; rounds = 6; set_up; prepare; traced }
