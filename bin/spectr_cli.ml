(* spectr — command-line interface to the SPECTR library.

   Subcommands:
     synthesize   synthesize + verify the case-study supervisor, export DOT
     identify     run an identification experiment and print the report
     scenario     run a manager through the 3-phase scenario, export CSV
     chaos        run a seeded randomized fault campaign (soak)
     replay       re-execute a chaos reproducer artifact deterministically
     fleet        simulate a coordinated fleet of SPECTR-managed SoCs
     platforms    list built-in platform descriptions or validate one
     list         list benchmarks, managers and subsystems

   Exit codes (beyond cmdliner's 124 for unknown subcommands/flags):
     0  success / campaign within expectations
     1  bad argument value (unknown manager, benchmark, platform, …)
     2  malformed reproducer artifact or platform CSV
     3  an invariant violation in a --fail-on variant, a fleet tick over
        the global cap under --require-compliant, or a node-kill drill
        missing its recovery deadline
     4  --require-violation variant stayed clean
     5  replay failed to reproduce (or trace digest mismatch)
*)

open Cmdliner
open Spectr_platform

(* Lift a unit command term into the int (exit code) world of
   [Cmd.eval']: plain commands exit 0 on success. *)
let exit_ok term = Term.(const (fun () -> 0) $ term)

(* ------------------------------------------------------------------ *)
(* platform specs                                                       *)
(* ------------------------------------------------------------------ *)

(* A platform spec is a built-in name ([exynos5422], [pixel8pro]), a
   synthetic [k<N>] generator, or a path to a platform CSV.  Unknown
   names exit 1 (bad argument); a file that exists but fails to parse
   exits 2 (malformed input, same class as a corrupt reproducer). *)
let platform_of_spec s =
  let k_arg =
    if String.length s >= 2 && s.[0] = 'k' then
      int_of_string_opt (String.sub s 1 (String.length s - 1))
    else None
  in
  match (s, k_arg) with
  | "exynos5422", _ -> Platform_desc.exynos5422
  | "pixel8pro", _ -> Platform_desc.pixel8pro
  | _, Some n -> (
      try Platform_desc.k_cluster n
      with Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 1)
  | _ ->
      if Sys.file_exists s then
        match Platform_desc.of_csv_file s with
        | Ok p -> p
        | Error e ->
            Format.eprintf "%s: %a@." s Platform_desc.pp_parse_error e;
            exit 2
      else begin
        Printf.eprintf
          "unknown platform %S (exynos5422, pixel8pro, k<N>, or a platform \
           CSV file)\n"
          s;
        exit 1
      end

let platform_arg =
  Arg.(
    value & opt string "exynos5422"
    & info [ "platform" ] ~docv:"PLATFORM"
        ~doc:
          "Platform description: $(b,exynos5422), $(b,pixel8pro), \
           $(b,k<N>) (synthetic N-cluster), or a platform CSV file.")

(* ------------------------------------------------------------------ *)
(* synthesize                                                           *)
(* ------------------------------------------------------------------ *)

let synthesize dot_path show_closed_loop =
  let plant = Spectr.Plant_model.composed () in
  let sup, stats = Spectr.Supervisor.synthesize () in
  Format.printf "plant:      %a@." Spectr_automata.Automaton.pp plant;
  Format.printf "spec:       %a@." Spectr_automata.Automaton.pp
    Spectr.Spec.three_band;
  Format.printf "supervisor: %a@." Spectr_automata.Automaton.pp sup;
  Format.printf "synthesis:  %a@." Spectr_automata.Synthesis.pp_stats stats;
  Format.printf "non-blocking: %b, controllable: %b@."
    (Spectr_automata.Verify.is_nonblocking sup)
    (Spectr_automata.Verify.is_controllable ~plant ~supervisor:sup);
  (match dot_path with
  | Some path ->
      Spectr_automata.Dot.write_file sup ~path;
      Printf.printf "wrote %s\n" path
  | None -> ());
  if show_closed_loop then begin
    let cl = Spectr_automata.Verify.closed_loop ~plant ~supervisor:sup in
    Format.printf "closed loop: %a@." Spectr_automata.Automaton.pp cl
  end

let synthesize_cmd =
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Export the supervisor as Graphviz DOT.")
  in
  let closed =
    Arg.(value & flag & info [ "closed-loop" ] ~doc:"Also build and summarize S || G.")
  in
  Cmd.v
    (Cmd.info "synthesize" ~doc:"Synthesize and verify the case-study supervisor")
    (exit_ok Term.(const synthesize $ dot $ closed))

(* ------------------------------------------------------------------ *)
(* identify                                                             *)
(* ------------------------------------------------------------------ *)

(* The one subsystem name table, named by the library: [identify]
   parses it, [list] prints it. *)
let subsystems =
  List.map
    (fun s -> (Spectr.Design_flow.subsystem_name s, s))
    Spectr.Design_flow.[ Big_2x2; Little_2x2; Fs_4x2; Large_10x10 ]

let subsystem_names = String.concat ", " (List.map fst subsystems)

let identify name length order =
  match List.assoc_opt name subsystems with
  | None ->
      Printf.eprintf "unknown subsystem %S (%s)\n" name subsystem_names;
      exit 1
  | Some subsystem ->
      (* A length too short for the excitation or the fit, or an order
         below 1, is a bad argument value: the library's message, exit
         1. *)
      let ident =
        match Spectr.Design_flow.identify ~length ~order subsystem with
        | ident -> ident
        | exception (Invalid_argument msg | Failure msg) ->
            prerr_endline msg;
            exit 1
      in
      Format.printf "%a@." Spectr_sysid.Validation.pp_report
        (Spectr.Design_flow.validation ident);
      let ss = ident.Spectr.Design_flow.statespace in
      Format.printf "realization: %a@." Spectr_control.Statespace.pp ss;
      Format.printf "DC gain (standardized):@.%a@." Spectr_linalg.Matrix.pp
        (Spectr_control.Statespace.dc_gain ss)

let identify_cmd =
  let subsystem =
    Arg.(
      value
      & pos 0 string "big-2x2"
      & info [] ~docv:"SUBSYSTEM"
          ~doc:(subsystem_names ^ "."))
  in
  let length =
    Arg.(value & opt int 1200 & info [ "n"; "length" ] ~doc:"Experiment length (50 ms periods).")
  in
  let order =
    Arg.(value & opt int 2 & info [ "order" ] ~doc:"ARX order (na = nb).")
  in
  Cmd.v
    (Cmd.info "identify" ~doc:"Run a system-identification experiment")
    (exit_ok Term.(const identify $ subsystem $ length $ order))

(* ------------------------------------------------------------------ *)
(* scenario                                                             *)
(* ------------------------------------------------------------------ *)

(* The manager catalogue's names, as [scenario -m] accepts them. *)
let manager_names =
  String.concat ", "
    (List.map
       (fun v -> String.lowercase_ascii (Spectr.Variant.name v))
       Spectr.Variant.all)

let scenario manager_name bench_name csv_path seed obs obs_jsonl platform_spec =
  let obs_on = obs || obs_jsonl <> None in
  (* Enable before manager construction so synthesis shows up in the
     synth-cache counters and histogram. *)
  if obs_on then Spectr_obs.enable ~now_ns:Monotonic_clock.now ();
  let platform = platform_of_spec platform_spec in
  let workload =
    match Benchmarks.by_name bench_name with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown benchmark %S\n" bench_name;
        exit 1
  in
  let variant =
    match Spectr.Variant.of_string manager_name with
    | v -> v
    | exception Invalid_argument _ ->
        Printf.eprintf "unknown manager %S (%s)\n" manager_name manager_names;
        exit 1
  in
  (* FS and SISO are hand-tuned for exynos5422: the catalogue refuses
     them elsewhere rather than silently mis-drive the platform. *)
  let manager =
    match Spectr.Variant.make platform variant with
    | manager, _, _, _ -> manager
    | exception Invalid_argument msg ->
        prerr_endline msg;
        exit 1
  in
  let config =
    {
      (Spectr.Scenario.default_config ~platform workload) with
      seed = Int64.of_int seed;
    }
  in
  let trace = Spectr.Scenario.run ~manager config in
  List.iter
    (fun m -> Format.printf "%a@." Spectr.Metrics.pp_phase_metrics m)
    (Spectr.Metrics.per_phase ~trace ~config);
  (match csv_path with
  | Some path ->
      let oc = open_out path in
      output_string oc (Trace.to_csv trace);
      close_out oc;
      Printf.printf "wrote %d rows to %s\n" (Trace.length trace) path
  | None -> ());
  if obs_on then begin
    print_string (Spectr_obs.summary ());
    match obs_jsonl with
    | Some path ->
        let oc = open_out path in
        output_string oc (Spectr_obs.Decision_log.to_jsonl ());
        close_out oc;
        Printf.printf "wrote %d decision(s) to %s\n"
          (Spectr_obs.Decision_log.length ())
          path
    | None -> ()
  end

let scenario_cmd =
  let manager =
    Arg.(
      value & opt string "spectr"
      & info [ "m"; "manager" ] ~doc:(manager_names ^ "."))
  in
  let bench =
    Arg.(value & opt string "x264" & info [ "b"; "benchmark" ] ~doc:"QoS benchmark.")
  in
  let csv =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Export the full trace as CSV.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.")
  in
  let obs =
    Arg.(
      value & flag
      & info [ "obs" ]
          ~doc:
            "Enable the observability layer and print its summary \
             (counters, latency histograms, decision tallies).")
  in
  let obs_jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-jsonl" ] ~docv:"FILE"
          ~doc:
            "Enable the observability layer and export the supervisory \
             decision log as JSONL (one decision per line).  Implies $(b,--obs).")
  in
  Cmd.v
    (Cmd.info "scenario" ~doc:"Run a resource manager through the 3-phase scenario")
    (exit_ok
       Term.(
         const scenario $ manager $ bench $ csv $ seed $ obs $ obs_jsonl
         $ platform_arg))

(* ------------------------------------------------------------------ *)
(* chaos                                                                *)
(* ------------------------------------------------------------------ *)

let parse_list ~what ~parse s =
  if String.trim s = "" then []
  else
    String.split_on_char ',' s
    |> List.map (fun tok ->
           let tok = String.trim tok in
           try parse tok
           with Invalid_argument _ ->
             Printf.eprintf "unknown %s %S\n" what tok;
             exit 1)

let chaos seed cells variants kinds max_faults kill_prob reconfig_prob
    artifact_dir shrink_budget max_findings fail_on require_violation =
  (* An empty list leaves the campaign's default. *)
  let unless_empty = function [] -> None | l -> Some l in
  let variants =
    unless_empty
      (parse_list ~what:"variant" ~parse:Spectr.Variant.of_string variants)
  in
  let kinds =
    unless_empty
      (parse_list ~what:"fault kind" ~parse:Faults.kind_of_string kinds)
  in
  let fail_on =
    parse_list ~what:"variant" ~parse:Spectr.Variant.of_string fail_on
  in
  let require_violation =
    Option.map
      (fun s ->
        match parse_list ~what:"variant" ~parse:Spectr.Variant.of_string s with
        | [ v ] -> v
        | _ ->
            Printf.eprintf "--require-violation takes exactly one variant\n";
            exit 1)
      require_violation
  in
  let spec =
    try
      Spectr_chaos.Campaign.default_spec ~seed ~cells ?variants ?kinds
        ~max_faults ~kill_prob ~reconfig_prob ()
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 1
  in
  let report = Spectr_chaos.Soak.run ~max_findings spec in
  print_string (Spectr_chaos.Soak.summary report);
  (* Shrink each finding to a minimal replayable reproducer. *)
  (match artifact_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      List.iter
        (fun f ->
          let outcome = f.Spectr_chaos.Soak.f_outcome in
          let cell = outcome.Spectr_chaos.Engine.cell in
          let kind =
            (List.hd outcome.Spectr_chaos.Engine.violations)
              .Spectr_chaos.Invariants.v_kind
          in
          let violates c =
            Spectr_chaos.Engine.violates ~kind (Spectr_chaos.Engine.run_cell c)
          in
          let res =
            Spectr_chaos.Shrink.minimize ~eval_budget:shrink_budget ~violates
              cell
          in
          let minimized = Spectr_chaos.Engine.run_cell res.Spectr_chaos.Shrink.cell in
          let path =
            Filename.concat dir
              (Printf.sprintf "cell-%04d.repro" cell.Spectr_chaos.Campaign.index)
          in
          Spectr_chaos.Artifact.save ~path
            {
              Spectr_chaos.Artifact.cell = res.Spectr_chaos.Shrink.cell;
              invariant = Some kind;
              digest = Some minimized.Spectr_chaos.Engine.digest;
            };
          Printf.printf
            "wrote %s (%d fault%s, %d shrink run%s)\n" path
            (List.length res.Spectr_chaos.Shrink.cell.Spectr_chaos.Campaign.injections)
            (if List.length res.Spectr_chaos.Shrink.cell.Spectr_chaos.Campaign.injections = 1
             then "" else "s")
            res.Spectr_chaos.Shrink.evaluations
            (if res.Spectr_chaos.Shrink.evaluations = 1 then "" else "s"))
        report.Spectr_chaos.Soak.r_findings);
  let violating v = Spectr_chaos.Soak.violating_cells report ~variant:v > 0 in
  if List.exists violating fail_on then begin
    Printf.printf "FAIL: invariant violation in a --fail-on variant\n";
    3
  end
  else
    match require_violation with
    | Some v when not (violating v) ->
        Printf.printf "FAIL: %s was expected to violate but stayed clean\n"
          (Spectr_chaos.Campaign.variant_name v);
        4
    | _ ->
        Printf.printf "OK\n";
        0

let chaos_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Campaign seed.") in
  let cells =
    Arg.(value & opt int 64 & info [ "cells" ] ~doc:"Number of campaign cells.")
  in
  let variants =
    Arg.(
      value & opt string ""
      & info [ "variants" ]
          ~doc:
            ("Comma-separated manager variants (" ^ manager_names
           ^ ").  Default: all but spectr+r."))
  in
  let kinds =
    Arg.(
      value & opt string ""
      & info [ "kinds" ]
          ~doc:
            "Comma-separated fault kinds to draw from (e.g. dropout:power, \
             spike:qos:8, dvfs-stuck).  Default: all.")
  in
  let max_faults =
    Arg.(value & opt int 3 & info [ "max-faults" ] ~doc:"Max faults per cell.")
  in
  let kill_prob =
    Arg.(
      value & opt float 0.25
      & info [ "kill-prob" ]
          ~doc:"Probability a cell kills and hot-restarts its manager.")
  in
  let reconfig_prob =
    Arg.(
      value & opt float 0.
      & info [ "reconfig-prob" ]
          ~doc:
            "Probability a cell latches one PERMANENT fault (dead cluster, \
             dead power sensor, latched DVFS rail) — the reconfiguration \
             drill for the spectr+r variant.  0 (default) leaves existing \
             campaigns byte-identical.")
  in
  let artifact_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifact-dir" ] ~docv:"DIR"
          ~doc:"Shrink each finding and write replayable reproducers here.")
  in
  let shrink_budget =
    Arg.(
      value & opt int 48
      & info [ "shrink-budget" ] ~doc:"Max scenario runs per shrink.")
  in
  let max_findings =
    Arg.(
      value & opt int 10
      & info [ "max-findings" ] ~doc:"Failing cells to detail (and shrink).")
  in
  let fail_on =
    Arg.(
      value & opt string "spectr+g"
      & info [ "fail-on" ]
          ~doc:
            "Comma-separated variants whose violations make the exit code \
             nonzero (3).  Empty to disable.")
  in
  let require_violation =
    Arg.(
      value
      & opt (some string) None
      & info [ "require-violation" ] ~docv:"VARIANT"
          ~doc:
            "Exit nonzero (4) unless this variant violates at least once — \
             guards the campaign against vacuous passes.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run a seeded randomized fault campaign with invariant monitors")
    Term.(
      const chaos $ seed $ cells $ variants $ kinds $ max_faults $ kill_prob
      $ reconfig_prob $ artifact_dir $ shrink_budget $ max_findings $ fail_on
      $ require_violation)

(* ------------------------------------------------------------------ *)
(* replay                                                               *)
(* ------------------------------------------------------------------ *)

let replay path =
  let artifact =
    try Spectr_chaos.Artifact.load ~path
    with
    | Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
    | Sys_error msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  let r = Spectr_chaos.Artifact.replay artifact in
  let o = r.Spectr_chaos.Artifact.outcome in
  let cell = o.Spectr_chaos.Engine.cell in
  Printf.printf "replayed cell %d (%s, seed %Ld): %d tick(s), digest %s\n"
    cell.Spectr_chaos.Campaign.index
    (Spectr_chaos.Campaign.variant_name cell.Spectr_chaos.Campaign.variant)
    cell.Spectr_chaos.Campaign.seed o.Spectr_chaos.Engine.ticks
    o.Spectr_chaos.Engine.digest;
  List.iter
    (fun v ->
      Printf.printf "  %s t=%.2fs: %s\n"
        (Spectr_chaos.Invariants.kind_name v.Spectr_chaos.Invariants.v_kind)
        v.Spectr_chaos.Invariants.v_time v.Spectr_chaos.Invariants.v_detail)
    o.Spectr_chaos.Engine.violations;
  match (r.Spectr_chaos.Artifact.reproduced, r.Spectr_chaos.Artifact.digest_matched) with
  | true, (Some true | None) ->
      Printf.printf "reproduced%s\n"
        (match r.Spectr_chaos.Artifact.digest_matched with
        | Some true -> " (trace digest matches)"
        | _ -> "");
      0
  | false, _ ->
      Printf.printf "FAIL: violation did not reproduce\n";
      5
  | true, Some false ->
      Printf.printf "FAIL: reproduced, but the trace digest changed\n";
      5

let replay_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Reproducer artifact written by $(b,chaos).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-execute a chaos reproducer artifact deterministically")
    Term.(const replay $ path)

(* ------------------------------------------------------------------ *)
(* fleet                                                                *)
(* ------------------------------------------------------------------ *)

let fleet nodes epochs ticks seed cap_per_node policy arrival_rate kill_rate
    node_kill require_compliant platform_specs =
  match node_kill with
  | Some drills -> (
      (* Node-kill campaign: whole-node death/restart drills over the
         fleet's Node abstraction, not a fleet simulation. *)
      match
        try Ok (Spectr_chaos.Node_kill.default_spec ~seed ~drills ())
        with Invalid_argument msg -> Error msg
      with
      | Error msg ->
          Printf.eprintf "%s\n" msg;
          exit 1
      | Ok spec ->
          let r = Spectr_chaos.Node_kill.run spec in
          print_string (Spectr_chaos.Node_kill.summary r);
          if r.Spectr_chaos.Node_kill.r_failed > 0 then begin
            Printf.printf "FAIL: %d drill(s) missed the recovery deadline\n"
              r.Spectr_chaos.Node_kill.r_failed;
            3
          end
          else begin
            Printf.printf "OK\n";
            0
          end)
  | None ->
      let policy =
        match Spectr_fleet.Coordinator.policy_of_string policy with
        | Some p -> p
        | None ->
            Printf.eprintf
              "unknown policy %S (uncoordinated, static, waterfill)\n" policy;
            exit 1
      in
      let platforms =
        String.split_on_char ',' platform_specs
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
        |> List.map platform_of_spec
        |> Array.of_list
      in
      let spec =
        {
          Spectr_fleet.Fleet.default_spec with
          nodes;
          epochs;
          ticks_per_epoch = ticks;
          seed;
          global_cap = cap_per_node *. float_of_int nodes;
          policy;
          arrival_rate;
          kill_rate;
          platforms;
        }
      in
      let r =
        try Spectr_fleet.Fleet.run spec
        with Invalid_argument msg ->
          Printf.eprintf "%s\n" msg;
          exit 1
      in
      Format.printf "%a@." Spectr_fleet.Fleet.pp_result r;
      if require_compliant && r.Spectr_fleet.Fleet.violation_ticks > 0 then begin
        Printf.printf "FAIL: %d tick(s) above the global cap\n"
          r.Spectr_fleet.Fleet.violation_ticks;
        3
      end
      else 0

let fleet_cmd =
  let nodes =
    Arg.(value & opt int 64 & info [ "nodes" ] ~doc:"Fleet size (SoCs).")
  in
  let epochs =
    Arg.(value & opt int 20 & info [ "epochs" ] ~doc:"Coordinator epochs.")
  in
  let ticks =
    Arg.(
      value & opt int 50
      & info [ "ticks" ] ~doc:"Controller periods per epoch (50 ms each).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Fleet seed.") in
  let cap =
    Arg.(
      value & opt float 2.5
      & info [ "cap-per-node" ] ~docv:"W"
          ~doc:
            "Global datacenter cap expressed per node (total = W × nodes); \
             the chip TDP is 5 W.")
  in
  let policy =
    Arg.(
      value & opt string "waterfill"
      & info [ "policy" ]
          ~doc:"Coordinator policy: uncoordinated, static or waterfill.")
  in
  let arrival_rate =
    Arg.(
      value & opt float 2.
      & info [ "arrival-rate" ] ~doc:"Mean workload arrivals per epoch.")
  in
  let kill_rate =
    Arg.(
      value & opt float 0.5
      & info [ "kill-rate" ] ~doc:"Mean node kills per epoch.")
  in
  let node_kill =
    Arg.(
      value
      & opt (some int) None
      & info [ "node-kill" ] ~docv:"DRILLS"
          ~doc:
            "Instead of a fleet run, execute this many whole-node \
             death/restart drills (checkpoint, kill, reboot, verify the \
             rebooted node settles under its cap) and exit 3 on any missed \
             deadline.")
  in
  let require_compliant =
    Arg.(
      value & flag
      & info [ "require-compliant" ]
          ~doc:
            "Exit nonzero (3) when any tick exceeds the global cap — the \
             fleet-bench gate.")
  in
  let platforms =
    Arg.(
      value & opt string "exynos5422"
      & info [ "platform" ] ~docv:"PLATFORMS"
          ~doc:
            "Comma-separated platform specs (built-in name, $(b,k<N>) or \
             CSV file); node $(i,i) runs spec $(i,i) mod count — more than \
             one gives an interleaved heterogeneous fleet.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Simulate a coordinated fleet of SPECTR-managed SoCs")
    Term.(
      const fleet $ nodes $ epochs $ ticks $ seed $ cap $ policy
      $ arrival_rate $ kill_rate $ node_kill $ require_compliant $ platforms)

(* ------------------------------------------------------------------ *)
(* platforms                                                            *)
(* ------------------------------------------------------------------ *)

let platforms validate =
  match validate with
  | Some spec ->
      (* Validate without running anything: [platform_of_spec] exits 1/2
         with the precise error on failure. *)
      let p = platform_of_spec spec in
      Printf.printf "%s\nOK: digest %s\n" (Platform_desc.describe p)
        (Platform_desc.digest p)
  | None ->
      List.iter
        (fun p -> print_endline (Platform_desc.describe p))
        (Platform_desc.builtins ())

let platforms_cmd =
  let validate =
    Arg.(
      value
      & opt (some string) None
      & info [ "platform" ] ~docv:"PLATFORM"
          ~doc:
            "Validate this platform spec (built-in name, $(b,k<N>) or CSV \
             file) and print its summary and digest instead of listing the \
             built-ins.  A malformed CSV exits 2 with the offending line.")
  in
  Cmd.v
    (Cmd.info "platforms"
       ~doc:"List built-in platform descriptions or validate one")
    (exit_ok Term.(const platforms $ validate))

(* ------------------------------------------------------------------ *)
(* list                                                                 *)
(* ------------------------------------------------------------------ *)

let list_all () =
  print_endline "benchmarks:";
  List.iter
    (fun w ->
      Printf.printf "  %-14s max %.1f HB/s, min %.1f HB/s\n" w.Workload.name
        (Perf_model.max_qos_rate_for Platform_desc.exynos5422 w)
        (Perf_model.min_qos_rate_for Platform_desc.exynos5422 w))
    (Benchmarks.microbench :: Benchmarks.all_qos);
  print_endline ("managers: " ^ manager_names);
  print_endline ("subsystems: " ^ subsystem_names)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List benchmarks, managers and subsystems")
    (exit_ok Term.(const list_all $ const ()))

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "spectr" ~version:"1.0.0"
      ~doc:"Supervisory control for many-core resource management"
  in
  (* [eval'] so that chaos/replay report campaign failures through the
     exit code (see the table at the top of this file); unit commands
     keep exiting 0 on success. *)
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            synthesize_cmd;
            identify_cmd;
            scenario_cmd;
            chaos_cmd;
            replay_cmd;
            fleet_cmd;
            platforms_cmd;
            list_cmd;
          ]))
