(* SPECTR benchmark harness: regenerates every table and figure of the
   paper's evaluation.

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe -- fig13   # just one (table1, fig3, fig5,
                                         # fig6, fig12, fig13, fig14,
                                         # fig15, overhead, ablations,
                                         # robustness, reconfig,
                                         # synthesis-scale, fleet)
     dune exec bench/main.exe -- memory  # per-phase heap and peak RSS,
                                         # by name only
     dune exec bench/main.exe -- --smoke fleet reconfig
                                         # the CI-sized fleet and
                                         # reconfig runs

   Allocation budgets and digest pins are tier-1 tests (dune runtest),
   not experiments here.

   Scenario grids fan out across a domain pool (sized by SPECTR_JOBS or
   the machine's recommended domain count); results are reduced in
   submission order, so the output is byte-identical for any job count.
   See EXPERIMENTS.md for the paper-vs-measured record. *)

let experiments =
  [
    ("table1", Table1.run);
    ("fig3", Fig3.run);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("fig12", Fig12.run);
    ("fig13", Fig13.run);
    ("fig14", Fig14.run);
    ("fig15", Fig15.run);
    ("overhead", Overhead.run);
    ("ablations", Ablations.run);
    ("robustness", Robustness.run);
    ("reconfig", Reconfig.run);
    ("synthesis-scale", Synthesis_scale.run);
    ("fleet", Fleet.run);
  ]

(* Run by name only: machine-dependent figures, outside the default
   all-experiments run.  [memory] runs each of its phases as a child
   process of this executable, by the phase's own name. *)
let probes = ("memory", Memory.run) :: Memory.phases

let usage () =
  Printf.eprintf
    "usage: main.exe [--smoke] [--obs] [experiment ...]\navailable: %s\n"
    (String.concat ", " (List.map fst (experiments @ probes)))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, names =
    List.partition (fun a -> a = "--smoke" || a = "--obs") args
  in
  if List.mem "--smoke" flags then begin
    Fleet.smoke := true;
    Reconfig.smoke := true
  end;
  let obs = List.mem "--obs" flags in
  (* Real monotonic clock for latency histograms; with --obs off the
     layer stays disabled and stdout is byte-identical (pinned by the
     CI parallel-vs-sequential diff and by test_obs). *)
  if obs then Spectr_obs.enable ~now_ns:Monotonic_clock.now ();
  let requested =
    match names with [] -> List.map fst experiments | names -> names
  in
  (* Validate every requested name before running anything: an unknown
     name must not abort the run halfway through earlier experiments. *)
  let unknown =
    List.filter
      (fun n -> not (List.mem_assoc n (experiments @ probes)))
      requested
  in
  if unknown <> [] then begin
    List.iter (fun n -> Printf.eprintf "unknown experiment %S\n" n) unknown;
    usage ();
    exit 1
  end;
  (* The job count goes to stderr: stdout must stay byte-identical
     across SPECTR_JOBS settings (pinned by the determinism test). *)
  let jobs = Spectr_exec.Parmap.jobs () in
  Printf.eprintf "harness: %d parallel job%s (override with SPECTR_JOBS)\n%!"
    jobs
    (if jobs = 1 then "" else "s");
  List.iter (fun name -> (List.assoc name (experiments @ probes)) ()) requested;
  if obs then begin
    Util.heading "obs-summary";
    print_string (Spectr_obs.summary ())
  end
