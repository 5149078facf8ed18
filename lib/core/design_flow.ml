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

let platform_of = function
  | Big_2x2 | Little_2x2 | Fs_4x2 | Large_10x10 -> Platform_desc.exynos5422
  | Cluster_2x2 (p, _) -> p

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

(* Physical description of one experiment channel. *)
type phys = {
  ch_name : string;
  lo : float; (* excitation range *)
  hi : float;
  sat_min : float; (* actuator saturation; outputs use infinities *)
  sat_max : float;
}

(* Excitation ranges are deliberately narrower than the actuator limits:
   black-box identification of a nonlinear plant (P ∝ V²f, Amdahl core
   scaling) needs a quasi-linear neighbourhood around the operating
   point; the controllers may still saturate out to the full physical
   range at runtime. *)
let input_spec = function
  | Big_2x2 ->
      [|
        { ch_name = "big-freq-ghz"; lo = 0.8; hi = 1.8; sat_min = 0.2; sat_max = 2.0 };
        { ch_name = "big-cores"; lo = 2.; hi = 4.; sat_min = 1.; sat_max = 4. };
      |]
  | Little_2x2 ->
      [|
        { ch_name = "little-freq-ghz"; lo = 0.4; hi = 1.2; sat_min = 0.2; sat_max = 1.4 };
        { ch_name = "little-cores"; lo = 2.; hi = 4.; sat_min = 1.; sat_max = 4. };
      |]
  | Fs_4x2 ->
      [|
        { ch_name = "big-freq-ghz"; lo = 0.8; hi = 1.8; sat_min = 0.2; sat_max = 2.0 };
        { ch_name = "big-cores"; lo = 2.; hi = 4.; sat_min = 1.; sat_max = 4. };
        { ch_name = "little-freq-ghz"; lo = 0.4; hi = 1.2; sat_min = 0.2; sat_max = 1.4 };
        { ch_name = "little-cores"; lo = 2.; hi = 4.; sat_min = 1.; sat_max = 4. };
      |]
  | Large_10x10 ->
      (* A 10-knob controller has no quasi-linear neighbourhood to hide
         in: its actuators span their full range (the §2.2 argument). *)
      Array.append
        (Array.init 8 (fun i ->
             {
               ch_name = Printf.sprintf "idle-core%d" i;
               lo = 0.;
               hi = 0.9;
               sat_min = 0.;
               sat_max = 0.9;
             }))
        [|
          { ch_name = "big-freq-ghz"; lo = 0.8; hi = 1.8; sat_min = 0.2; sat_max = 2.0 };
          { ch_name = "little-freq-ghz"; lo = 0.4; hi = 1.2; sat_min = 0.2; sat_max = 1.4 };
        |]
  | Cluster_2x2 (p, i) ->
      (* Description-driven: excite the middle of the cluster's DVFS
         range (quasi-linear neighbourhood), saturate out to the full
         table; cores from 2 (or 1 on a unicore cluster) to the physical
         count. *)
      let cl = Platform_desc.cluster p i in
      let name = cl.Platform_desc.cl_name in
      let opp = cl.Platform_desc.opp in
      let lo_mhz = float_of_int (Opp.min_freq opp) in
      let hi_mhz = float_of_int (Opp.max_freq opp) in
      let span = hi_mhz -. lo_mhz in
      let cores = float_of_int cl.Platform_desc.cores in
      [|
        {
          ch_name = name ^ "-freq-ghz";
          lo = (lo_mhz +. (0.3 *. span)) /. 1000.;
          hi = (lo_mhz +. (0.85 *. span)) /. 1000.;
          sat_min = lo_mhz /. 1000.;
          sat_max = hi_mhz /. 1000.;
        };
        {
          ch_name = name ^ "-cores";
          lo = Float.min 2. cores;
          hi = cores;
          sat_min = 1.;
          sat_max = cores;
        };
      |]

let output_names = function
  | Big_2x2 -> [| "qos"; "big-power" |]
  | Little_2x2 -> [| "little-gips"; "little-power" |]
  | Fs_4x2 -> [| "qos"; "chip-power" |]
  | Large_10x10 ->
      Array.append
        (Array.init 8 (fun i -> Printf.sprintf "core%d-gips" i))
        [| "big-power"; "little-power" |]
  | Cluster_2x2 (p, i) ->
      let name = Platform_desc.cluster_name p i in
      if i = Platform_desc.host p then [| "qos"; name ^ "-power" |]
      else [| name ^ "-gips"; name ^ "-power" |]

let background_load = function
  | Big_2x2 -> 0
  | Little_2x2 -> 8
  | Fs_4x2 -> 4
  | Large_10x10 -> 4
  | Cluster_2x2 (p, i) ->
      (* Host identification wants the QoS app alone (like Big_2x2);
         secondary clusters are identified under the background load
         they exist to absorb (like Little_2x2). *)
      if i = Platform_desc.host p then 0 else 8

(* Exynos cluster indices of the hard-wired subsystems (description
   order of [Platform_desc.exynos5422]). *)
let exy_big = 0
let exy_little = 1

(* Apply one excitation row to the SoC and return the actually-applied
   physical input vector (after OPP quantization and rounding). *)
let apply_inputs subsystem soc row =
  match subsystem with
  | Big_2x2 | Little_2x2 | Cluster_2x2 _ ->
      let i =
        match subsystem with
        | Big_2x2 -> exy_big
        | Little_2x2 -> exy_little
        | Cluster_2x2 (_, i) -> i
        | _ -> assert false
      in
      let f = Soc.set_frequency soc i (row.(0) *. 1000.) in
      let cores = int_of_float (Float.round row.(1)) in
      Soc.set_active_cores soc i cores;
      [| float_of_int f /. 1000.; float_of_int (Soc.active_cores soc i) |]
  | Fs_4x2 ->
      let bf = Soc.set_frequency soc exy_big (row.(0) *. 1000.) in
      Soc.set_active_cores soc exy_big (int_of_float (Float.round row.(1)));
      let lf = Soc.set_frequency soc exy_little (row.(2) *. 1000.) in
      Soc.set_active_cores soc exy_little (int_of_float (Float.round row.(3)));
      [|
        float_of_int bf /. 1000.;
        float_of_int (Soc.active_cores soc exy_big);
        float_of_int lf /. 1000.;
        float_of_int (Soc.active_cores soc exy_little);
      |]
  | Large_10x10 ->
      for i = 0 to 7 do
        Soc.set_idle_fraction soc ~core:i row.(i)
      done;
      let bf = Soc.set_frequency soc exy_big (row.(8) *. 1000.) in
      let lf = Soc.set_frequency soc exy_little (row.(9) *. 1000.) in
      Array.append
        (Array.init 8 (fun i -> Soc.idle_fraction soc ~core:i))
        [| float_of_int bf /. 1000.; float_of_int lf /. 1000. |]

let read_outputs subsystem soc (obs : Soc.observation) =
  let powers = Soc.sensor_powers soc in
  match subsystem with
  | Big_2x2 -> [| obs.Soc.qos_rate; powers.(exy_big) |]
  | Little_2x2 ->
      [| (Soc.ips_totals soc).(exy_little) /. 1e9; powers.(exy_little) |]
  | Fs_4x2 -> [| obs.Soc.qos_rate; obs.Soc.chip_power |]
  | Large_10x10 ->
      (* The per-core PMU readings left the observation record (no
         runtime manager consumes them); the 10×10 identification pulls
         them from the SoC, which replays the skipped noise draws. *)
      Array.append
        (Array.map (fun v -> v /. 1e9) (Soc.per_core_ips soc))
        [| powers.(exy_big); powers.(exy_little) |]
  | Cluster_2x2 (p, i) ->
      if i = Platform_desc.host p then [| obs.Soc.qos_rate; powers.(i) |]
      else [| (Soc.ips_totals soc).(i) /. 1e9; powers.(i) |]

(* The estimation/validation split of the standardized dataset: the
   model is fitted on the first 65 %, {!validation} replays the rest. *)
let validation_split = 0.65

let identify_uncached ~seed ~length ~order subsystem =
  let platform = platform_of subsystem in
  let config = { (Soc.config_of platform) with seed } in
  let soc = Soc.create ~config ~platform ~qos:Benchmarks.microbench () in
  Soc.set_background_tasks soc (background_load subsystem);
  let phys_in = input_spec subsystem in
  (* Independent random staircases per channel (distinct dwell times and
     RNG streams) so the regression can separate actuator effects. *)
  let excitation =
    let master = Spectr_linalg.Prng.create (Int64.add seed 1L) in
    let per_channel =
      Array.mapi
        (fun i p ->
          let g = Spectr_linalg.Prng.split master in
          Excitation.random_staircase g ~lo:p.lo ~hi:p.hi ~hold:(8 + (3 * i))
            ~length ())
        phys_in
    in
    Array.init length (fun k ->
        Array.map (fun ch -> ch.(k)) per_channel)
  in
  let u = Array.make length [||] in
  let y = Array.make length [||] in
  (* Same loop order as the runtime daemon (measure, then actuate), so
     y(t) responds to u(t−1) — the one-period actuation delay the ARX
     lag structure assumes. *)
  for t = 0 to length - 1 do
    let obs = Soc.step soc ~dt:0.05 in
    y.(t) <- read_outputs subsystem soc obs;
    u.(t) <- apply_inputs subsystem soc excitation.(t)
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
      (fun i ph ->
        Mimo.channel ~offset:u_mean.(i) ~scale:u_std.(i) ~min:ph.sat_min
          ~max:ph.sat_max ph.ch_name)
      phys_in
  in
  let output_channels =
    Array.mapi
      (fun i name -> Mimo.channel ~offset:y_mean.(i) ~scale:y_std.(i) name)
      (output_names subsystem)
  in
  {
    subsystem;
    model;
    statespace = Arx.to_statespace model;
    input_channels;
    output_channels;
    dataset = data;
  }

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
  Validation.validate ~output_names:(output_names ident.subsystem)
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
