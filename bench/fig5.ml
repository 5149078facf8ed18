(* Figure 5: accuracy of identified system models — predicted (free
   simulation) vs measured power output, for the per-cluster 2x2 system
   and the per-core 10x10 system.  The 2x2 model tracks the measurement;
   the 10x10 model visibly deviates.  The two identifications run in
   parallel; printing follows in figure order. *)

open Spectr_sysid

let series subsystem ~output_index ~output_name =
  let ident = Spectr.Design_flow.identify subsystem in
  (* the held-out slice the validation simulates, as in
     Design_flow.validation *)
  let _, held_out = Dataset.split ident.Spectr.Design_flow.dataset ~at:0.65 in
  let report_holdout = Spectr.Design_flow.validation ident in
  let n = min 100 (Dataset.length held_out) in
  let measured =
    Array.init n (fun t -> held_out.Dataset.y.(t).(output_index))
  in
  let predicted =
    Array.init n (fun t ->
        report_holdout.Validation.simulated.(t).(output_index))
  in
  let fit =
    report_holdout.Validation.channels.(output_index).Validation.fit_percent
  in
  (measured, predicted, fit, output_name)

let print_block title (measured, predicted, fit, name) =
  Util.subheading
    (Printf.sprintf "%s — %s output, free-simulation fit %.1f%%" title name fit);
  let time = Array.init (Array.length measured) (fun t -> float_of_int t) in
  Util.print_series ~columns:[ "measured"; "predicted" ] ~time
    [ measured; predicted ]

let run () =
  Util.heading
    "Figure 5: identified-model accuracy, 2x2 vs 10x10 (normalized power)";
  let blocks =
    Spectr_exec.Parmap.map
      (fun (title, subsystem, output_index, output_name) ->
        (title, series subsystem ~output_index ~output_name))
      [
        ("2x2 per-cluster model", Spectr.Design_flow.Big_2x2, 1, "big power");
        ("10x10 per-core model", Spectr.Design_flow.Large_10x10, 8, "big power");
      ]
  in
  List.iter (fun (title, block) -> print_block title block) blocks;
  print_endline
    "\nShape check (paper): the small model's prediction follows the\n\
     measurement; the large model deviates significantly."
