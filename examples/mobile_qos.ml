(* Mobile QoS management: the paper's headline case study (Figures 10/13).

   A QoS application (x264 by default) runs on the Big cluster of a
   simulated Exynos-class big.LITTLE SoC while a resource manager tracks
   its frame rate against a reference and keeps chip power inside a
   dynamic envelope, across the three-phase Safe / Emergency /
   Disturbance scenario.

     dune exec examples/mobile_qos.exe                 # SPECTR on x264
     dune exec examples/mobile_qos.exe -- -m mm-perf -b canneal
*)

open Spectr_platform
open Spectr

let run manager_name bench_name =
  let workload =
    match Benchmarks.by_name bench_name with
    | Some w -> w
    | None -> failwith ("unknown benchmark: " ^ bench_name)
  in
  Printf.printf "Building %s (identification + gain design)...\n%!"
    manager_name;
  let manager, _, _, _ =
    Variant.make Platform_desc.exynos5422 (Variant.of_string manager_name)
  in
  let config = Scenario.default_config workload in
  Printf.printf "Running the 3-phase scenario on %s (QoS ref %.1f)...\n%!"
    workload.Workload.name config.Scenario.qos_ref;
  let trace = Scenario.run ~manager config in

  (* A coarse console rendering of Figure 13: one line per half second. *)
  let time = Trace.column trace "time" in
  let qos = Trace.column trace "qos" in
  let power = Trace.column trace "power" in
  let envelope = Trace.column trace "envelope" in
  print_endline "";
  print_endline "  time    QoS [=ref]                power [|envelope]";
  Array.iteri
    (fun i t ->
      if i mod 10 = 9 then begin
        let bar v scale width =
          let n = max 0 (min width (int_of_float (v /. scale))) in
          String.make n '#' ^ String.make (width - n) ' '
        in
        Printf.printf "  %5.2f  %s %5.1f   %s %4.2fW (cap %.1f)\n" t
          (bar qos.(i) 2.5 32)
          qos.(i)
          (bar power.(i) 0.2 32)
          power.(i) envelope.(i)
      end)
    time;
  print_endline "";
  List.iter
    (fun m -> Format.printf "  %a@." Metrics.pp_phase_metrics m)
    (Metrics.per_phase ~trace ~config)

(* cmdliner interface *)
open Cmdliner

let manager_arg =
  let doc =
    "Resource manager: spectr+r, spectr+g, spectr, mm-pow, mm-perf, siso or \
     fs."
  in
  Arg.(value & opt string "spectr" & info [ "m"; "manager" ] ~doc)

let bench_arg =
  let doc =
    "QoS benchmark: x264, bodytrack, canneal, streamcluster, kmeans, knn, \
     lesq or lr."
  in
  Arg.(value & opt string "x264" & info [ "b"; "benchmark" ] ~doc)

let cmd =
  let info =
    Cmd.info "mobile_qos"
      ~doc:"Run a resource manager through the SPECTR evaluation scenario"
  in
  Cmd.v info Term.(const run $ manager_arg $ bench_arg)

let () = exit (Cmd.eval cmd)
