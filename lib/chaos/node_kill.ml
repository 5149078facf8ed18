open Spectr_linalg
open Spectr_platform
module Node = Spectr_fleet.Node

type drill = {
  d_index : int;
  d_seed : int64;
  d_workload : string;
  d_cap : float;
  d_pre_ticks : int;
  d_checkpoint_every : int;
  d_down_ticks : int;
  d_post_ticks : int;
  d_deadline : int;
}

type outcome = {
  o_drill : drill;
  o_checkpointed : bool;
  o_recovery_ticks : int option;
  o_recovered : bool;
  o_peak_after : float;
  o_debt : float;
  o_digest : string;
}

let dt = Campaign.dt

let validate_drill d =
  if
    d.d_pre_ticks <= 0 || d.d_checkpoint_every <= 0 || d.d_down_ticks <= 0
    || d.d_post_ticks <= 0 || d.d_deadline < 0 || d.d_cap <= 0.
  then invalid_arg "Node_kill.run_drill: malformed drill"

let run_drill d =
  validate_drill d;
  let workload =
    match Benchmarks.by_name d.d_workload with
    | Some w -> w
    | None ->
        invalid_arg
          (Printf.sprintf "Node_kill.run_drill: unknown workload %S"
             d.d_workload)
  in
  let node = Node.create ~id:d.d_index ~seed:d.d_seed ~workload () in
  Node.set_cap node d.d_cap;
  Node.warm_up node;
  let canon = Buffer.create 1024 in
  let line k p = Buffer.add_string canon (Printf.sprintf "%d %h\n" k p) in
  let tick_no = ref 0 in
  let step () =
    Node.tick node ~dt;
    let p = Node.last_true_power node in
    line !tick_no p;
    incr tick_no;
    p
  in
  (* Healthy life: tick under the assigned cap, checkpointing on the
     drill's cadence — the last checkpoint before the kill is whatever the
     cadence left, so restore staleness varies drill to drill. *)
  let checkpointed = ref false in
  for k = 1 to d.d_pre_ticks do
    ignore (step ());
    if k mod d.d_checkpoint_every = 0 then begin
      Node.checkpoint node;
      checkpointed := true
    end
  done;
  (* Dark window: the node draws nothing, serves nothing, and its QoS
     debt integrates at one second per second. *)
  Node.kill node;
  for _ = 1 to d.d_down_ticks do
    ignore (step ())
  done;
  (* Reboot: fresh platform, last checkpoint restored into the manager
     ({!Spectr.Manager.persist}), uncounted boot warm-up inside. *)
  Node.restart node;
  let post = Array.init d.d_post_ticks (fun _ -> step ()) in
  (* Compliance is judged on a 1 s moving average, not raw ticks: a cap
     that falls between the chip's quantized OPP power levels makes the
     supervisor dither around it, and the average — the quantity a
     fleet coordinator budgets on — is the contract a single node can
     actually honor. *)
  let window = Float.to_int (Float.round (1.0 /. dt)) in
  let smoothed =
    Array.mapi
      (fun k _ ->
        let from = max 0 (k - window + 1) in
        let sum = ref 0. in
        for j = from to k do
          sum := !sum +. post.(j)
        done;
        !sum /. float_of_int (k - from + 1))
      post
  in
  (* First post-reboot tick from which the average stays compliant:
     the compliance time against the cap, counted in ticks (dt = 1). *)
  let recovery_ticks =
    Spectr.Metrics.compliance_time_series
      ~envelope:(Array.make d.d_post_ticks d.d_cap)
      ~dt:1. smoothed
    |> Option.map Float.to_int
  in
  let recovered =
    match recovery_ticks with Some k -> k <= d.d_deadline | None -> false
  in
  let peak_after = Array.fold_left Float.max 0. post in
  let r = Node.report node in
  let m = r.Node.r_m in
  Buffer.add_string canon
    (Printf.sprintf "report %h %h %d %d\n" m.Node.r_qos m.Node.r_total_debt
       r.Node.r_kills r.Node.r_restarts);
  {
    o_drill = d;
    o_checkpointed = !checkpointed;
    o_recovery_ticks = recovery_ticks;
    o_recovered = recovered;
    o_peak_after = peak_after;
    o_debt = m.Node.r_total_debt;
    o_digest = Digest.to_hex (Digest.string (Buffer.contents canon));
  }

type spec = {
  campaign_seed : int;
  drills : int;
  cap_lo : float;
  cap_hi : float;
}

let default_spec ?(seed = 2024) ?(drills = 32) () =
  if drills <= 0 then invalid_arg "Node_kill.default_spec: drills <= 0";
  { campaign_seed = seed; drills; cap_lo = 1.6; cap_hi = 3.2 }

let drill_of_spec spec index =
  if spec.drills <= 0 || spec.cap_lo <= 0. || spec.cap_hi < spec.cap_lo then
    invalid_arg "Node_kill.drill_of_spec: malformed spec";
  if index < 0 || index >= spec.drills then
    invalid_arg "Node_kill.drill_of_spec: index out of range";
  let g = Prng.create (Prng.mix_seed spec.campaign_seed index) in
  let workloads = Array.of_list Benchmarks.all_qos in
  let w = workloads.(Prng.int g (Array.length workloads)) in
  {
    d_index = index;
    d_seed = Prng.int64 g;
    d_workload = w.Workload.name;
    d_cap = Prng.uniform g ~lo:spec.cap_lo ~hi:spec.cap_hi;
    d_pre_ticks = 40 + Prng.int g 41;
    d_checkpoint_every = 10 + Prng.int g 16;
    d_down_ticks = 20 + Prng.int g 41;
    d_post_ticks = 100;
    d_deadline = 60;
  }

type report = {
  r_spec : spec;
  r_outcomes : outcome list;
  r_failed : int;
  r_digest : string;
}

let run ?pool spec =
  let drills = List.init spec.drills (drill_of_spec spec) in
  let outcomes = Spectr_exec.Parmap.map ?pool run_drill drills in
  let failed =
    List.fold_left (fun n o -> if o.o_recovered then n else n + 1) 0 outcomes
  in
  let canon = String.concat "" (List.map (fun o -> o.o_digest) outcomes) in
  {
    r_spec = spec;
    r_outcomes = outcomes;
    r_failed = failed;
    r_digest = Digest.to_hex (Digest.string canon);
  }

let summary r =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "node-kill campaign: %d drills, seed %d\n"
       r.r_spec.drills r.r_spec.campaign_seed);
  List.iter
    (fun o ->
      let d = o.o_drill in
      let verdict =
        match o.o_recovery_ticks with
        | Some k when o.o_recovered -> Printf.sprintf "recovered in %d ticks" k
        | Some k -> Printf.sprintf "FAILED: settled at tick %d > deadline %d" k d.d_deadline
        | None -> "FAILED: never settled"
      in
      Buffer.add_string b
        (Printf.sprintf
           "  drill %2d  %-12s cap %.2f W  down %2d  %s  (peak %.2f W, debt \
            %.2f s)\n"
           d.d_index d.d_workload d.d_cap d.d_down_ticks verdict o.o_peak_after
           o.o_debt))
    r.r_outcomes;
  Buffer.add_string b
    (Printf.sprintf "failed %d/%d  digest %s\n" r.r_failed r.r_spec.drills
       r.r_digest);
  Buffer.contents b
