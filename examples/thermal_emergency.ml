(* Closed thermal loop: the emergency is derived, not scripted.

   The die temperature follows a first-order RC response to chip power;
   a thermostat-style governor (as the OS thermal subsystem would) trips
   the power envelope from TDP to an emergency value at 70 degC and
   releases at 62 degC.  A demanding QoS reference forces the platform
   hot; we compare how SPECTR and the uncoordinated MM-Perf ride the
   resulting emergencies.

     dune exec examples/thermal_emergency.exe
*)

open Spectr_platform
open Spectr

let run name manager =
  Printf.printf "\n=== %s under the thermal governor\n" name;
  let workload = Benchmarks.x264 in
  let qos_ref =
    0.95 *. Perf_model.max_qos_rate_for Platform_desc.exynos5422 workload
  in
  let governor =
    Thermal_governor.create ~trip_c:63. ~release_c:56. ~tdp:5.0
      ~emergency_envelope:3.2 ()
  in
  let soc = Soc.create ~qos:workload () in
  let trips = ref 0 in
  let was_tripped = ref false in
  let max_temp = ref 0. in
  let qos_acc = ref 0. and energy = ref 0. in
  let steps = 600 (* 30 s *) in
  for i = 1 to steps do
    let obs = Soc.step soc ~dt:0.05 in
    let envelope =
      Thermal_governor.envelope governor ~temperature_c:obs.Soc.temperature_c
    in
    if Thermal_governor.tripped governor && not !was_tripped then begin
      incr trips;
      Printf.printf
        "  t=%5.2f  TRIP: %.1f degC at %.2f W -> envelope %.1f W\n"
        obs.Soc.time obs.Soc.temperature_c obs.Soc.chip_power envelope
    end;
    was_tripped := Thermal_governor.tripped governor;
    max_temp := Float.max !max_temp (Soc.temperature soc);
    qos_acc := !qos_acc +. obs.Soc.qos_rate;
    energy := !energy +. (0.05 *. obs.Soc.chip_power);
    manager.Manager.step ~now:obs.Soc.time ~qos_ref ~envelope ~obs soc;
    if i mod 100 = 0 then
      Printf.printf "  t=%5.2f  %.1f degC  %.2f W  %.1f FPS  envelope %.1f\n"
        obs.Soc.time obs.Soc.temperature_c obs.Soc.chip_power obs.Soc.qos_rate
        envelope
  done;
  Printf.printf
    "  summary: %d trips, peak %.1f degC, mean QoS %.1f (ref %.1f), energy %.1f J\n"
    !trips !max_temp
    (!qos_acc /. float_of_int steps)
    qos_ref !energy

let () =
  print_endline
    "Thermal-emergency case study (trip 63 degC / release 56 degC, RC\n\
     thermal model: 8 degC/W toward ambient 30 degC, tau 3 s).";
  let spectr, _ = Spectr_manager.make () in
  run "SPECTR" spectr;
  run "MM-Perf" (Mm.make_perf ~platform:Platform_desc.exynos5422 ());
  print_endline
    "\nSPECTR's supervisor reacts to each envelope drop by re-budgeting and\n\
     gain-switching, riding the thermostat with fewer and shorter trips;\n\
     the performance-pinned MM-Perf repeatedly drives the die back into\n\
     the trip point."
