(* Figure 15: autocorrelation of one-step residuals for identified models
   of increasing size (2x2 per-cluster, 4x2 full-system, 10x10 per-core)
   against 99% whiteness confidence bands, for a throughput (IPS) output
   and a power output.  The three identifications are independent and run
   in parallel; the per-channel printing follows in figure order. *)

open Spectr_sysid

let print_channel ~title (c : Validation.channel_report) =
  Util.subheading
    (Printf.sprintf "%s — 99%% confidence ±%.3f, violations %d, max excursion %+.3f"
       title c.Validation.confidence99 c.Validation.violations
       c.Validation.max_excursion);
  Printf.printf "%6s %10s %s\n" "lag" "autocorr" "";
  Array.iter
    (fun (lag, v) ->
      if lag >= 0 && lag mod 2 = 0 then begin
        let marker = if abs_float v > c.Validation.confidence99 then "  <-- outside band" else "" in
        let width = int_of_float (abs_float v *. 40.) in
        Printf.printf "%6d %+10.3f %s%s\n" lag v
          (String.make (min width 40) '#')
          marker
      end)
    c.Validation.residual_autocorr

let subsystems =
  [ Spectr.Design_flow.Big_2x2; Spectr.Design_flow.Fs_4x2; Spectr.Design_flow.Large_10x10 ]

let run () =
  Util.heading
    "Figure 15: residual autocorrelation vs model size (whiteness check)";
  let cases =
    [
      (Spectr.Design_flow.Big_2x2, 0, "2x2 big-cluster model, QoS/IPS output");
      (Spectr.Design_flow.Big_2x2, 1, "2x2 big-cluster model, power output");
      (Spectr.Design_flow.Fs_4x2, 0, "4x2 full-system model, QoS/IPS output");
      (Spectr.Design_flow.Fs_4x2, 1, "4x2 full-system model, power output");
      (Spectr.Design_flow.Large_10x10, 0, "10x10 model, core0 IPS output");
      (Spectr.Design_flow.Large_10x10, 8, "10x10 model, big power output");
    ]
  in
  let reports =
    Spectr_exec.Parmap.map
      (fun sub ->
        (sub, Spectr.Design_flow.validation (Spectr.Design_flow.identify sub)))
      subsystems
  in
  let channels sub = (List.assoc sub reports).Validation.channels in
  List.iter
    (fun (sub, idx, title) -> print_channel ~title (channels sub).(idx))
    cases;
  Util.subheading "violations per channel, averaged over all outputs";
  List.iter
    (fun sub ->
      let chans = channels sub in
      let avg =
        Array.fold_left
          (fun acc c -> acc +. float_of_int c.Validation.violations)
          0. chans
        /. float_of_int (Array.length chans)
      in
      Printf.printf "  %-12s %.1f violations of the 99%% band per channel\n"
        (Spectr.Design_flow.subsystem_name sub)
        avg)
    subsystems;
  print_endline
    "\nShape check (paper): the 2x2 model stays inside the confidence\n\
     band; larger models show progressively more band violations and\n\
     sharper peaks."
