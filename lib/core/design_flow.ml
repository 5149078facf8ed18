open Spectr_control
open Spectr_sysid
open Spectr_platform
module Platform_desc = Spectr_platform.Platform_desc

type subsystem =
  | Big_2x2
  | Little_2x2
  | Fs_4x2
  | Large_10x10
  | Cluster_2x2 of Platform_desc.t * int
      (* one cluster of an arbitrary platform description: (freq, cores)
         -> (qos|gips, power), the description-driven generalization of
         Big_2x2/Little_2x2 *)

let subsystem_name = function
  | Big_2x2 -> "big-2x2"
  | Little_2x2 -> "little-2x2"
  | Fs_4x2 -> "fs-4x2"
  | Large_10x10 -> "large-10x10"
  | Cluster_2x2 (p, i) ->
      (* The digest prefix keys the name to the exact description — two
         platforms sharing a cluster name are different subsystems. *)
      Printf.sprintf "%s-2x2@%s"
        (Platform_desc.cluster_name p i)
        (String.sub (Platform_desc.digest p) 0 8)

(* Digests are computed once per description, so this is a string
   compare. *)
let is_reference_platform p =
  String.equal (Platform_desc.digest p)
    (Platform_desc.digest Platform_desc.exynos5422)

(* The per-cluster subsystem of a description, routed through the
   hard-wired Exynos variants when the description *is* the Exynos —
   keeping their memo keys (and thus identification experiments, gain
   caches and traces) identical to the pre-description code. *)
let cluster_subsystem p i =
  if is_reference_platform p then
    if i = Platform_desc.host p then Big_2x2 else Little_2x2
  else Cluster_2x2 (p, i)

type identified = {
  subsystem : subsystem;
  model : Arx.model;
  statespace : Statespace.t;
  input_channels : Mimo.channel array;
  output_channels : Mimo.channel array;
  dataset : Dataset.t;
}

(* An identification experiment as data: the knobs it excites, the
   sensors it reads and the background load it runs under.  Cluster and
   core arguments index the experiment's platform description. *)
type knob = Freq of int | Cores of int | Idle of int (* core *)
type sensor = Qos | Power of int | Chip_power | Gips of int | Core_gips of int

type input = {
  knob : knob;
  ch_name : string;
  lo : float; (* excitation range *)
  hi : float;
  sat_min : float; (* actuator saturation *)
  sat_max : float;
}

type experiment = {
  platform : Platform_desc.t;
  inputs : input array;
  outputs : (sensor * string) array; (* with the output channel's name *)
  background : int;
}

(* Excitation ranges are deliberately narrower than the actuator limits:
   black-box identification of a nonlinear plant (P ∝ V²f, Amdahl core
   scaling) needs a quasi-linear neighbourhood around the operating
   point; the controllers may still saturate out to the full physical
   range at runtime.  A cluster's frequency is excited over [freq] (GHz)
   and saturates at the ends of its OPP table; its cores run from 2 (or
   1 on a unicore cluster) to the physical count. *)
let cluster_knobs p i ~freq:(lo, hi) =
  let { Platform_desc.cl_name; cores; opp; _ } = Platform_desc.cluster p i in
  let ghz mhz = float_of_int mhz /. 1000. and n = float_of_int cores in
  [|
    { knob = Freq i; ch_name = cl_name ^ "-freq-ghz"; lo; hi;
      sat_min = ghz (Opp.min_freq opp); sat_max = ghz (Opp.max_freq opp) };
    { knob = Cores i; ch_name = cl_name ^ "-cores"; lo = Float.min 2. n;
      hi = n; sat_min = 1.; sat_max = n };
  |]

let power p i = (Power i, Platform_desc.cluster_name p i ^ "-power")

(* One cluster's (freq, cores) -> (qos|gips, power) experiment: the host
   cluster is identified with the QoS app alone, a secondary one under
   the background load it exists to absorb. *)
let cluster_experiment p i ~freq =
  let host = i = Platform_desc.host p in
  let gips = (Gips i, Platform_desc.cluster_name p i ^ "-gips") in
  {
    platform = p;
    inputs = cluster_knobs p i ~freq;
    outputs = [| (if host then (Qos, "qos") else gips); power p i |];
    background = (if host then 0 else 8);
  }

(* The hand-set exynos5422 ranges of [Big_2x2] (cluster 0) and
   [Little_2x2] (cluster 1).  [Cluster_2x2] excites the middle of the
   cluster's DVFS table instead: 0.74–1.73 and 0.56–1.22 GHz here. *)
let big_freq = (0.8, 1.8)
let little_freq = (0.4, 1.2)

let experiment subsystem =
  let exy = Platform_desc.exynos5422 in
  let big = cluster_knobs exy 0 ~freq:big_freq in
  let little = cluster_knobs exy 1 ~freq:little_freq in
  match subsystem with
  | Big_2x2 -> cluster_experiment exy 0 ~freq:big_freq
  | Little_2x2 -> cluster_experiment exy 1 ~freq:little_freq
  | Cluster_2x2 (p, i) ->
      let opp = (Platform_desc.cluster p i).Platform_desc.opp in
      let lo = float_of_int (Opp.min_freq opp) in
      let span = float_of_int (Opp.max_freq opp) -. lo in
      cluster_experiment p i
        ~freq:((lo +. (0.3 *. span)) /. 1000., (lo +. (0.85 *. span)) /. 1000.)
  | Fs_4x2 ->
      let outputs = [| (Qos, "qos"); (Chip_power, "chip-power") |] in
      { platform = exy; inputs = Array.append big little; outputs; background = 4 }
  | Large_10x10 ->
      (* A 10-knob controller has no quasi-linear neighbourhood to hide
         in: its idle knobs span their full range (the §2.2 argument). *)
      let idle c =
        { knob = Idle c; ch_name = Printf.sprintf "idle-core%d" c; lo = 0.;
          hi = 0.9; sat_min = 0.; sat_max = 0.9 }
      in
      let gips c = (Core_gips c, Printf.sprintf "core%d-gips" c) in
      let inputs = Array.append (Array.init 8 idle) [| big.(0); little.(0) |] in
      let outputs =
        Array.append (Array.init 8 gips) [| power exy 0; power exy 1 |]
      in
      { platform = exy; inputs; outputs; background = 4 }

(* Set one knob and return what the SoC actually applied (after OPP
   quantization, rounding and clamping). *)
let[@inline] apply soc knob v =
  match knob with
  | Freq i -> float_of_int (Soc.set_frequency soc i (v *. 1000.)) /. 1000.
  | Cores i ->
      Soc.set_active_cores soc i (int_of_float (Float.round v));
      float_of_int (Soc.active_cores soc i)
  | Idle core ->
      Soc.set_idle_fraction soc ~core v;
      Soc.idle_fraction soc ~core

(* One sensor reading.  [ips] is the row's per-core IPS: the per-core
   PMU readings left the observation record (no runtime manager consumes
   them), so the SoC replays the skipped noise draws when asked. *)
let[@inline] read soc (obs : Soc.observation) ips sensor =
  match sensor with
  | Qos -> obs.Soc.qos_rate
  | Power i -> (Soc.sensor_powers soc).(i)
  | Chip_power -> obs.Soc.chip_power
  | Gips i -> (Soc.ips_totals soc).(i) /. 1e9
  | Core_gips core -> ips.(core) /. 1e9

(* The estimation/validation split of the standardized dataset: the
   model is fitted on the first 65 %, {!validation} replays the rest. *)
let validation_split = 0.65

let identify_uncached ~seed ~length ~order subsystem =
  let { platform; inputs; outputs; background } = experiment subsystem in
  let config = { (Soc.config_of platform) with seed } in
  let soc = Soc.create ~config ~platform ~qos:Benchmarks.microbench () in
  Soc.set_background_tasks soc background;
  (* Independent random staircases per channel (distinct dwell times and
     RNG streams) so the regression can separate actuator effects. *)
  let excitation =
    let master = Spectr_linalg.Prng.create (Int64.add seed 1L) in
    Array.mapi
      (fun i p ->
        let g = Spectr_linalg.Prng.split master in
        Excitation.random_staircase g ~lo:p.lo ~hi:p.hi ~hold:(8 + (3 * i))
          ~length ())
      inputs
  in
  let m = Array.length inputs and p = Array.length outputs in
  let per_core =
    Array.exists (function Core_gips _, _ -> true | _ -> false) outputs
  in
  let u = Array.make length [||] and y = Array.make length [||] in
  (* Same loop order as the runtime daemon (measure, then actuate), so
     y(t) responds to u(t−1) — the one-period actuation delay the ARX
     lag structure assumes.  Each row holds the physical readings and the
     actually-applied inputs. *)
  for t = 0 to length - 1 do
    let obs = Soc.step soc ~dt:0.05 in
    let ips = if per_core then Soc.per_core_ips soc else [||] in
    let yt = Array.create_float p and ut = Array.create_float m in
    for j = 0 to p - 1 do
      yt.(j) <- read soc obs ips (fst outputs.(j))
    done;
    for j = 0 to m - 1 do
      ut.(j) <- apply soc inputs.(j).knob excitation.(j).(t)
    done;
    y.(t) <- yt;
    u.(t) <- ut
  done;
  (* Standardize: identification on deviations around the operating
     point, scaled to unit variance — the controller channels carry the
     (mean, std) back to physical units. *)
  let data, (u_mean, u_std), (y_mean, y_std) =
    Dataset.standardize (Dataset.create ~u ~y)
  in
  let est, _ = Dataset.split data ~at:validation_split in
  let model =
    match Arx.fit ~na:order ~nb:order est with
    | Ok m -> m
    | Error e ->
        failwith
          (Format.asprintf "Design_flow.identify(%s): %a"
             (subsystem_name subsystem) Arx.pp_error e)
  in
  let input_channels =
    Array.mapi
      (fun i c ->
        Mimo.channel ~offset:u_mean.(i) ~scale:u_std.(i) ~min:c.sat_min
          ~max:c.sat_max c.ch_name)
      inputs
  in
  let output_channels =
    Array.mapi
      (fun i (_, name) -> Mimo.channel ~offset:y_mean.(i) ~scale:y_std.(i) name)
      outputs
  in
  let statespace = Arx.to_statespace model in
  { subsystem; model; statespace; input_channels; output_channels; dataset = data }

(* Identification is a pure function of (subsystem, seed, length, order):
   the experiment runs on a private SoC with explicit PRNG streams, so a
   cached result is indistinguishable from a fresh run.  The returned
   record is immutable and shared read-only — Mimo.create copies the
   references it needs.  Memoizing matters because every chaos-campaign
   cell (and every parallel bench task) builds its managers from scratch:
   without the cache each SPECTR construction replays two 60 s
   identification experiments. *)
let ident_cache :
    (subsystem * int64 * int * int, identified) Spectr_exec.Single_flight.t =
  Spectr_exec.Single_flight.create ~size:16 ()

let identify ?(seed = 17L) ?(length = 1200) ?(order = 2) subsystem =
  Spectr_exec.Single_flight.find_or_compute ident_cache
    ~key:(subsystem, seed, length, order)
    ~compute:(fun () -> identify_uncached ~seed ~length ~order subsystem)

(* Nothing at run time reads the cross-validation report — managers take
   the model and channels — so it is computed on demand, not memoized. *)
let validation ident =
  let _, held_out = Dataset.split ident.dataset ~at:validation_split in
  Validation.validate
    ~output_names:(Array.map snd (experiment ident.subsystem).outputs)
    ~model:ident.model held_out

type goal = { label : string; q_y : float array }

let design_gains ident goals =
  let m = Statespace.num_inputs ident.statespace in
  let p = Statespace.num_outputs ident.statespace in
  (* Paper §5: frequency twice as cheap to move as core count. *)
  let r_u = Array.init m (fun i -> if i mod 2 = 0 then 1. else 2.) in
  (* One goal's LQG design (Step 7), then the robustness gate (Step
     8), goal by goal, stopping at the first failure. *)
  let design goal =
    if Array.length goal.q_y <> p then
      Error (Printf.sprintf "goal %s: q_y must have %d entries" goal.label p)
    else
      let w_max = Array.fold_left Float.max 1e-9 goal.q_y in
      (* Integrator weights square the output-priority ratio so the
         priority objective's integrator dominates steady-state
         conflicts: a 30:1 Q ratio yields 900:1 integral authority —
         the fixed controller pins its priority output at the
         reference and lets the other float, as in Fig. 3. *)
      let q_integrator =
        Array.map (fun w -> 0.1 *. w *. w /. w_max) goal.q_y
      in
      match
        Lqg.design ~q_integrator ~label:goal.label ~model:ident.statespace
          ~q_y:goal.q_y ~r_u ()
      with
      | Error e -> Error (Format.asprintf "goal %s: %a" goal.label Lqg.pp_error e)
      | Ok gains ->
          if Guardband.robustly_stable gains then Ok gains
          else
            Error
              (Printf.sprintf "goal %s: not robust under guardbands"
                 gains.Lqg.label)
  in
  let rec walk acc = function
    | [] -> Ok (List.rev acc)
    | goal :: rest -> (
        match design goal with
        | Error _ as e -> e
        | Ok gains -> walk (gains :: acc) rest)
  in
  walk [] goals

(* Gain design is a pure function of the identified model and the goal
   weights, and the identified model is itself memoized on
   (subsystem, seed, length, order) — so the designed gain sets can be
   memoized on the union of both keys.  This is what makes batch
   harnesses cheap: the first manager of a variant pays the
   LQG/robustness pipeline, every later
   construction (each scenario cell, each parallel bench task) reuses
   the identical gain list.  The cached [Lqg.gains] are shared
   read-only, exactly like the cached identification record. *)
let design_cache :
    ( subsystem * int64 * int * int * (string * float array) list,
      (Lqg.gains list, string) result )
    Spectr_exec.Single_flight.t =
  Spectr_exec.Single_flight.create ~size:16 ()

let design_gains_for ?(seed = 17L) ?(length = 1200) ?(order = 2) subsystem
    goals =
  let ident = identify ~seed ~length ~order subsystem in
  Spectr_exec.Single_flight.find_or_compute design_cache
    ~key:
      ( subsystem,
        seed,
        length,
        order,
        List.map (fun g -> (g.label, g.q_y)) goals )
    ~compute:(fun () -> design_gains ident goals)

let build_mimo ident ~gains ~initial ~refs =
  Mimo.create ~gains ~initial ~inputs:ident.input_channels
    ~outputs:ident.output_channels ~refs ()
