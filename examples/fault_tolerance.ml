(* Fault tolerance: ride out a dead power sensor.

   The power sensor drops to zero mid-run while the QoS application and
   a burst of background work keep the chip busy.  An unguarded manager
   believes the reading — it sees infinite headroom and chases QoS
   straight through the power envelope.  The guarded manager's sanity
   filter rejects the implausible reading, its watchdog notices the
   persistent loss and degrades to the minimum-power open-loop fallback,
   and closed-loop control resumes once the sensor returns.

     dune exec examples/fault_tolerance.exe
*)

open Spectr_platform
open Spectr

let phase name ~duration_s ~envelope ~background_tasks ~faults =
  {
    Scenario.phase_name = name;
    duration_s;
    envelope;
    background_tasks;
    phase_faults = faults;
  }

let config () =
  {
    (Scenario.default_config Benchmarks.x264) with
    Scenario.phases =
      [
        phase "nominal" ~duration_s:3. ~envelope:5.0 ~background_tasks:0
          ~faults:
            [
              (* Absolute window (this phase starts at t = 0): the sensor
                 dies at 3.5 s, half a second into the emergency, and
                 comes back at 6.5 s. *)
              Faults.injection (Faults.Dropout Power) ~start_s:3.5 ~stop_s:6.5;
            ];
        phase "emergency" ~duration_s:4. ~envelope:3.5 ~background_tasks:16
          ~faults:[];
        phase "restored" ~duration_s:5. ~envelope:5.0 ~background_tasks:0
          ~faults:[];
      ];
  }

let describe name trace guards =
  let time = Trace.column trace "time" in
  let true_power = Trace.column trace "true_power" in
  let envelope = Trace.column trace "envelope" in
  let dt = 0.05 in
  let excess = ref 0. in
  let peak_over = ref 0. in
  Array.iteri
    (fun i p ->
      if p > envelope.(i) *. 1.05 then excess := !excess +. dt;
      peak_over := Float.max !peak_over (p -. envelope.(i)))
    true_power;
  Printf.printf
    "%-9s time over envelope: %.2f s  (worst excursion %.2f W above the cap)\n"
    name !excess !peak_over;
  (match guards with
  | None -> ()
  | Some g ->
      List.iter
        (fun (entered, exited) ->
          match exited with
          | Some t ->
              Printf.printf
                "          watchdog: degraded at %.2f s, recovered at %.2f s \
                 (%.2f s in fallback)\n"
                entered t (t -. entered)
          | None ->
              Printf.printf "          watchdog: still degraded at %.2f s\n"
                time.(Array.length time - 1))
        (Guarded.degradation_spans g);
      Printf.printf "          filter substituted %d of %d samples\n"
        (Guarded.substituted_samples g)
        (Guarded.total_samples g))

let () =
  let cfg = config () in
  print_endline
    "Power sensor dropout, 3.5-6.5 s, while the envelope tightens to 3.5 W:";
  let unguarded, _ = Spectr_manager.make () in
  describe "SPECTR" (Scenario.run ~manager:unguarded cfg) None;
  let guards = Guarded.create ~clusters:2 () in
  let guarded, _ = Spectr_manager.make ~guards () in
  describe "SPECTR+G" (Scenario.run ~manager:guarded cfg) (Some guards);
  print_endline
    "The guards trade QoS for safety while blind, then hand control back."
