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
   ([stop_s = infinity], which [advance]'s [now < stop_s] handles
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

(* The sensor channels' stuck-at slots, one per channel in a flat float
   array: power channel [i] at [i], QoS and temperature after the power
   slots. *)
let qos_slot = max_clusters
let temp_slot = max_clusters + 1

type clock = { mutable now : float }

(* The schedule, and what is active at the time of the last [advance]:
   every field read on the tick path is an int, a bool or a flat array,
   so no query builds a closure or boxes a float. *)
type t = {
  sched : injection array; (* the injections, in schedule order *)
  on : bool array; (* per injection: window active *)
  mutable active : int;
  mutable dvfs_stuck : bool;
  mutable gating_refused : bool;
  mutable stalled : bool;
  dead : bool array; (* per cluster: a [Cluster_dead] is active *)
  mutable any_dead : bool;
  rng : Prng.t; (* spike noise only; independent of the SoC's stream *)
  last : float array; (* last healthy reading per channel slot *)
}

let create ?(seed = 0xFA17L) injections =
  List.iter
    (fun i -> ignore (injection i.fault ~start_s:i.start_s ~stop_s:i.stop_s))
    injections;
  let sched = Array.of_list injections in
  {
    sched;
    on = Array.make (Array.length sched) false;
    active = 0;
    dvfs_stuck = false;
    gating_refused = false;
    stalled = false;
    dead = Array.make max_clusters false;
    any_dead = false;
    rng = Prng.create seed;
    last = Array.make (temp_slot + 1) 0.;
  }

let injections t = Array.to_list t.sched

let advance t clock =
  let now = clock.now in
  t.active <- 0;
  t.dvfs_stuck <- false;
  t.gating_refused <- false;
  t.stalled <- false;
  Array.fill t.dead 0 max_clusters false;
  t.any_dead <- false;
  for j = 0 to Array.length t.sched - 1 do
    let i = t.sched.(j) in
    let on = now >= i.start_s && now < i.stop_s in
    t.on.(j) <- on;
    if on then begin
      t.active <- t.active + 1;
      match i.fault with
      | Dvfs_stuck | Dvfs_stuck_permanent -> t.dvfs_stuck <- true
      | Gating_refused -> t.gating_refused <- true
      | Heartbeat_stall -> t.stalled <- true
      | Cluster_dead c ->
          t.dead.(c) <- true;
          t.any_dead <- true
      | Dropout _ | Stuck_at_last _ | Spike_burst _ | Sensor_dead _ -> ()
    end
  done

let active_count t = t.active
let dvfs_stuck t = t.dvfs_stuck
let gating_refused t = t.gating_refused
let heartbeat_stalled t = t.stalled
let cluster_dead t i = i >= 0 && i < max_clusters && t.dead.(i)
let any_cluster_dead t = t.any_dead

(* Does a fault's sensor designator hit the channel in [slot]?  A plain
   [Power] fault hits every cluster's power sensor, a [Power_cluster i]
   fault only cluster [i]'s. *)
let hits sensor slot =
  match sensor with
  | Power -> slot < max_clusters
  | Power_cluster i -> i = slot
  | Qos -> slot = qos_slot
  | Temp -> slot = temp_slot

(* Sensor transforms compose in severity order: a spike burst corrupts a
   live reading, stuck-at freezes it, dropout kills it outright, and a
   heartbeat stall zeroes the QoS channel's output after it.  One walk
   over the schedule's active injections draws every matching burst's
   spike in schedule order, whatever else is active, and notes the
   other transforms on the way.  The reading is [sens.(pos)], rewritten
   in place. *)
let apply_sensor t sens pos slot =
  let spiked = ref sens.(pos) and dropped = ref false and stuck = ref false in
  for j = 0 to Array.length t.sched - 1 do
    if t.on.(j) then
      match t.sched.(j).fault with
      | Spike_burst (s, mag) when hits s slot ->
          if Prng.chance t.rng spike_probability then spiked := !spiked *. mag
      | (Dropout s | Sensor_dead s) when hits s slot -> dropped := true
      | Stuck_at_last s when hits s slot -> stuck := true
      | _ -> ()
  done;
  sens.(pos) <-
    (if !dropped then 0.
     else if !stuck then t.last.(slot)
     else begin
       t.last.(slot) <- !spiked;
       !spiked
     end);
  if slot = qos_slot && t.stalled then sens.(pos) <- 0.

let apply_sensors t sens ~k =
  if k < 1 || k > max_clusters || Array.length sens < k + 2 then
    invalid_arg "Faults.apply_sensors: bad channel layout";
  apply_sensor t sens k qos_slot;
  for i = k - 1 downto 0 do
    apply_sensor t sens i i
  done;
  apply_sensor t sens (k + 1) temp_slot

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
