open Spectr_control
open Spectr_platform

(* Exynos cluster indices: the SISO baseline is a hand-tuned PID chain
   for the reference big.LITTLE platform, not a description-driven
   manager — Variant.make rejects it on any other platform. *)
let big = 0
let little = 1

let saved_id : (Pid.saved * Pid.saved * Pid.saved) Type.Id.t =
  Type.Id.make ()

let make () =
  let dt = 0.05 in
  (* QoS -> Big frequency: ~40 FPS of range per GHz near the operating
     point, so a gain of a few hundredths of GHz per FPS of error. *)
  let qos_pid =
    Pid.create
      (Pid.config ~u_min:(-0.8) ~u_max:1.0 ~kp:0.008 ~ki:0.12 ~kd:0. ~dt ())
      ~reference:60.
  in
  (* Big power -> active cores: positive error (below budget) adds
     cores.  Slow outer loop (integral-dominated). *)
  let cores_pid =
    Pid.create
      (Pid.config ~u_min:(-1.5) ~u_max:1.5 ~kp:0.2 ~ki:0.6 ~kd:0. ~dt ())
      ~reference:4.5
  in
  (* Little power -> little frequency. *)
  let little_pid =
    Pid.create
      (Pid.config ~u_min:(-0.4) ~u_max:0.8 ~kp:0.4 ~ki:1.2 ~kd:0. ~dt ())
      ~reference:0.3
  in
  (* Each PID produces a bounded deviation around a mid-range operating
     point (frequency 1.0 GHz, 2.5 cores, little 0.6 GHz).  The loops'
     floats and the command pair move through flat records and a float
     array, so no float is boxed on the way to the SoC. *)
  let qos = Pid.io qos_pid
  and cores_io = Pid.io cores_pid
  and little_io = Pid.io little_pid in
  let cmd = [| 0.; 0. |] in
  let step ~now:_ ~qos_ref ~envelope ~obs soc =
    let powers = Soc.sensor_powers soc in
    qos.reference <- qos_ref;
    cores_io.reference <- Float.max 0.5 (envelope -. Mm.little_power_budget);
    qos.measured <- obs.Soc.qos_rate;
    Pid.update qos_pid;
    cores_io.measured <- powers.(big);
    Pid.update cores_pid;
    cmd.(0) <- Float.max 0.2 (Float.min 2.0 (1.0 +. qos.command));
    cmd.(1) <- Float.max 1. (Float.min 4. (2.5 +. cores_io.command));
    Manager.apply_cluster soc big cmd ~at:0;
    little_io.measured <- powers.(little);
    Pid.update little_pid;
    cmd.(0) <- Float.max 0.2 (Float.min 1.4 (0.6 +. little_io.command));
    cmd.(1) <- 2.;
    Manager.apply_cluster soc little cmd ~at:0
  in
  let persist =
    Manager.make_persist ~variant:"SISO" ~id:saved_id
      ~saved:(fun () ->
        (Pid.saved qos_pid, Pid.saved cores_pid, Pid.saved little_pid))
      ~copy:(fun (sq, sc, sl) ~restore ->
        Pid.copy qos_pid sq ~restore;
        Pid.copy cores_pid sc ~restore;
        Pid.copy little_pid sl ~restore)
  in
  { Manager.name = "SISO"; step; persist = Some persist }
