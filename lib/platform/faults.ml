open Spectr_linalg

type sensor = Power | Power_cluster of int | Qos | Temp

(* How many per-cluster stuck-at slots the schedule carries; matches
   [Platform_desc]'s 16-cluster ceiling. *)
let max_clusters = 16

type kind =
  | Dropout of sensor
  | Stuck_at_last of sensor
  | Spike_burst of sensor * float
  | Dvfs_stuck
  | Gating_refused
  | Heartbeat_stall
  | Cluster_dead of int
  | Sensor_dead of sensor
  | Dvfs_stuck_permanent

let spike_probability = 0.3

let is_permanent = function
  | Cluster_dead _ | Sensor_dead _ | Dvfs_stuck_permanent -> true
  | Dropout _ | Stuck_at_last _ | Spike_burst _ | Dvfs_stuck | Gating_refused
  | Heartbeat_stall ->
      false

let validate_sensor = function
  | Power_cluster i when i < 0 || i >= max_clusters ->
      invalid_arg
        (Printf.sprintf "Faults: power channel %d not in 0..%d" i
           (max_clusters - 1))
  | _ -> ()

let validate_kind = function
  | Spike_burst (s, mag) ->
      validate_sensor s;
      if not (Float.is_finite mag && mag > 0.) then
        invalid_arg
          (Printf.sprintf "Faults: spike magnitude %g not finite and positive"
             mag)
  | Dropout s | Stuck_at_last s | Sensor_dead s -> validate_sensor s
  | Cluster_dead i when i < 0 || i >= max_clusters ->
      invalid_arg
        (Printf.sprintf "Faults: dead cluster %d not in 0..%d" i
           (max_clusters - 1))
  | _ -> ()

type injection = { fault : kind; start_s : float; stop_s : float }

(* Permanent faults are onset-only: their window never closes
   ([stop_s = infinity], which [window_active]'s [now < stop_s] handles
   without a special case and which %.17g/"float_of_string" round-trip
   as "inf").  Transient faults keep the original finite-window rule;
   giving a permanent kind a finite stop (or a transient kind an
   infinite one) is a schedule bug and rejected loudly. *)
let injection fault ~start_s ~stop_s =
  validate_kind fault;
  if not (Float.is_finite start_s) || start_s < 0. then
    invalid_arg
      (Printf.sprintf "Faults.injection: onset %g negative or not finite"
         start_s);
  if is_permanent fault then begin
    if stop_s <> Float.infinity then
      invalid_arg
        (Printf.sprintf
           "Faults.injection: permanent fault %s requires stop_s = inf, got %g"
           (match fault with
           | Cluster_dead i -> Printf.sprintf "cluster-dead:%d" i
           | Sensor_dead _ -> "sensor-dead"
           | _ -> "dvfs-stuck-perm")
           stop_s)
  end
  else if not (Float.is_finite stop_s) || stop_s <= start_s then
    invalid_arg
      (Printf.sprintf
         "Faults.injection: window [%g, %g) has non-positive duration" start_s
         stop_s);
  { fault; start_s; stop_s }

let permanent fault ~start_s = injection fault ~start_s ~stop_s:Float.infinity

(* The QoS and temperature stuck-at slots, rewritten every tick: a
   record of floats only is stored flat, where a float field of the
   mixed [t] would hold the reading's box until the next minor
   collection promoted it. *)
type last = { mutable qos : float; mutable temp : float }

type t = {
  injections : injection list;
  rng : Prng.t; (* spike noise only; independent of the SoC's stream *)
  last_power : float array; (* per-cluster stuck-at slots *)
  last : last;
}

let create ?(seed = 0xFA17L) injections =
  List.iter
    (fun i -> ignore (injection i.fault ~start_s:i.start_s ~stop_s:i.stop_s))
    injections;
  {
    injections;
    rng = Prng.create seed;
    last_power = Array.make max_clusters 0.;
    last = { qos = 0.; temp = 0. };
  }

let injections t = t.injections
let window_active i ~now = now >= i.start_s && now < i.stop_s

let active_count t ~now =
  List.length (List.filter (window_active ~now) t.injections)

let active_on t ~now pred =
  List.exists (fun i -> window_active i ~now && pred i.fault) t.injections

let dvfs_stuck t ~now =
  active_on t ~now (fun f -> f = Dvfs_stuck || f = Dvfs_stuck_permanent)

let gating_refused t ~now = active_on t ~now (fun f -> f = Gating_refused)
let heartbeat_stalled t ~now = active_on t ~now (fun f -> f = Heartbeat_stall)
let cluster_dead t ~now ~cluster = active_on t ~now (fun f -> f = Cluster_dead cluster)

let has_permanent t = List.exists (fun i -> is_permanent i.fault) t.injections

(* Sensor transforms compose in severity order: a spike burst corrupts a
   live reading, stuck-at freezes it, dropout kills it outright.
   [matches] decides whether a fault's sensor designator hits this
   channel — a plain [Power] fault hits every cluster's power sensor, a
   [Power_cluster i] fault only cluster [i]'s. *)
let apply_sensor t ~now ~matches ~get_last ~set_last v =
  let active pred = active_on t ~now pred in
  let spiked =
    List.fold_left
      (fun v i ->
        match i.fault with
        | Spike_burst (s, mag) when matches s && window_active i ~now ->
            if Prng.float t.rng < spike_probability then v *. mag else v
        | _ -> v)
      v t.injections
  in
  if active (function Dropout s | Sensor_dead s -> matches s | _ -> false)
  then 0.
  else if active (function Stuck_at_last s -> matches s | _ -> false) then
    get_last ()
  else begin
    set_last spiked;
    spiked
  end

(* The [] fast paths keep the empty-schedule tick kernel allocation-free:
   [apply_sensor] builds get/set closures and a fold closure per call,
   which is fine under active chaos campaigns but would dominate the
   steady-state budget.  With no injections the slow path reduces to
   "record last healthy reading, return v", which is what each fast path
   does directly. *)

let apply_power t ~now ~cluster v =
  if cluster < 0 || cluster >= max_clusters then
    invalid_arg "Faults.apply_power: cluster out of range";
  match t.injections with
  | [] ->
      t.last_power.(cluster) <- v;
      v
  | _ :: _ ->
      apply_sensor t ~now
        ~matches:(fun s -> s = Power || s = Power_cluster cluster)
        ~get_last:(fun () -> t.last_power.(cluster))
        ~set_last:(fun v -> t.last_power.(cluster) <- v)
        v

let apply_qos t ~now v =
  match t.injections with
  | [] ->
      t.last.qos <- v;
      v
  | _ :: _ ->
      let v =
        apply_sensor t ~now
          ~matches:(fun s -> s = Qos)
          ~get_last:(fun () -> t.last.qos)
          ~set_last:(fun v -> t.last.qos <- v)
          v
      in
      if heartbeat_stalled t ~now then 0. else v

let apply_temp t ~now v =
  match t.injections with
  | [] ->
      t.last.temp <- v;
      v
  | _ :: _ ->
      apply_sensor t ~now
        ~matches:(fun s -> s = Temp)
        ~get_last:(fun () -> t.last.temp)
        ~set_last:(fun v -> t.last.temp <- v)
        v

let shift injections ~by =
  List.map
    (fun i -> { i with start_s = i.start_s +. by; stop_s = i.stop_s +. by })
    injections

(* --- textual serialization (reproducer artifacts) -------------------- *)

let sensor_to_string = function
  | Power -> "power"
  | Power_cluster i -> "power" ^ string_of_int i
  | Qos -> "qos"
  | Temp -> "temp"

let sensor_of_string = function
  | "power" -> Power
  | "qos" -> Qos
  | "temp" -> Temp
  | s ->
      let bad () = invalid_arg (Printf.sprintf "Faults.sensor_of_string: %S" s) in
      if String.length s > 5 && String.sub s 0 5 = "power" then
        match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
        | Some i when i >= 0 && i < max_clusters -> Power_cluster i
        | _ -> bad ()
      else bad ()

(* %.17g round-trips every finite double exactly. *)
let flt v = Printf.sprintf "%.17g" v

let kind_to_string = function
  | Dropout s -> "dropout:" ^ sensor_to_string s
  | Stuck_at_last s -> "stuck:" ^ sensor_to_string s
  | Spike_burst (s, mag) ->
      Printf.sprintf "spike:%s:%s" (sensor_to_string s) (flt mag)
  | Dvfs_stuck -> "dvfs-stuck"
  | Gating_refused -> "gating-refused"
  | Heartbeat_stall -> "heartbeat-stall"
  | Cluster_dead i -> "cluster-dead:" ^ string_of_int i
  | Sensor_dead s -> "sensor-dead:" ^ sensor_to_string s
  | Dvfs_stuck_permanent -> "dvfs-stuck-perm"

let float_field ~what s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Faults: bad %s %S" what s)

let kind_of_string s =
  let kind =
    match String.split_on_char ':' s with
    | [ "dropout"; sensor ] -> Dropout (sensor_of_string sensor)
    | [ "stuck"; sensor ] -> Stuck_at_last (sensor_of_string sensor)
    | [ "spike"; sensor; mag ] ->
        Spike_burst (sensor_of_string sensor, float_field ~what:"magnitude" mag)
    | [ "dvfs-stuck" ] -> Dvfs_stuck
    | [ "gating-refused" ] -> Gating_refused
    | [ "heartbeat-stall" ] -> Heartbeat_stall
    | [ "cluster-dead"; i ] -> (
        match int_of_string_opt i with
        | Some i -> Cluster_dead i
        | None -> invalid_arg (Printf.sprintf "Faults: bad cluster %S" i))
    | [ "sensor-dead"; sensor ] -> Sensor_dead (sensor_of_string sensor)
    | [ "dvfs-stuck-perm" ] -> Dvfs_stuck_permanent
    | _ -> invalid_arg (Printf.sprintf "Faults.kind_of_string: %S" s)
  in
  validate_kind kind;
  kind

let injection_to_string i =
  Printf.sprintf "%s@%s/%s" (kind_to_string i.fault) (flt i.start_s)
    (flt i.stop_s)

let injection_of_string s =
  match String.index_opt s '@' with
  | None -> invalid_arg (Printf.sprintf "Faults.injection_of_string: %S" s)
  | Some at -> (
      let kind = kind_of_string (String.sub s 0 at) in
      let window = String.sub s (at + 1) (String.length s - at - 1) in
      match String.split_on_char '/' window with
      | [ start_s; stop_s ] ->
          injection kind
            ~start_s:(float_field ~what:"onset" start_s)
            ~stop_s:(float_field ~what:"stop" stop_s)
      | _ -> invalid_arg (Printf.sprintf "Faults.injection_of_string: %S" s))
