type finding = {
  f_outcome : Engine.outcome;
  f_log_tail : string list;
}

type variant_stat = {
  vs_variant : Campaign.variant;
  vs_cells : int;
  vs_violating : int;
  vs_violations : int;
}

type report = {
  r_spec : Campaign.spec;
  r_outcomes : Engine.outcome list;
  r_variant_stats : variant_stat list;
  r_kind_counts : (Invariants.kind * int) list;
  r_findings : finding list;
}

(* Decision-log lines kept per finding. *)
let log_tail = 40

(* Deterministically re-run one failing cell with the observability
   layer on and harvest the decision-log tail.  The parallel sweep runs
   with obs off (the log is process-global); instrumentation must not
   perturb traces, so the re-run's digest must equal the sweep's, or
   the log tail would explain some other run. *)
let harvest_log_tail (o : Engine.outcome) =
  let was_enabled = Spectr_obs.enabled () in
  Spectr_obs.enable ();
  Spectr_obs.reset ();
  let finally () =
    Spectr_obs.reset ();
    if not was_enabled then Spectr_obs.disable ()
  in
  Fun.protect ~finally (fun () ->
      let rerun = Engine.run_cell o.Engine.cell in
      if rerun.Engine.digest <> o.Engine.digest then
        failwith
          (Printf.sprintf
             "Soak: cell %d re-ran with digest %s, the sweep's was %s"
             o.Engine.cell.Campaign.index rerun.Engine.digest o.Engine.digest);
      let lines =
        String.split_on_char '\n' (Spectr_obs.Decision_log.to_jsonl ())
        |> List.filter (fun l -> l <> "")
      in
      let n = List.length lines in
      if n <= log_tail then lines
      else List.filteri (fun i _ -> i >= n - log_tail) lines)

let all_kinds =
  Invariants.
    [ Power_cap; Qos_reconvergence; Supervisor_legal; Actuation_bounds;
      Non_finite ]

let run ?(max_findings = 10) spec =
  let cells = Campaign.generate spec in
  (* One warm arena for the whole sweep: each pool domain builds its
     managers once and resets them between its cells. *)
  let arena = Arena.create () in
  let outcomes = Spectr_exec.Parmap.map (Engine.run_cell ~arena) cells in
  let variant_stats =
    List.map
      (fun v ->
        let mine =
          List.filter
            (fun o -> o.Engine.cell.Campaign.variant = v)
            outcomes
        in
        {
          vs_variant = v;
          vs_cells = List.length mine;
          vs_violating =
            List.length (List.filter (fun o -> Engine.violates o) mine);
          vs_violations =
            List.fold_left
              (fun acc o -> acc + List.length o.Engine.violations)
              0 mine;
        })
      spec.Campaign.variants
  in
  let kind_counts =
    List.filter_map
      (fun k ->
        let n =
          List.length
            (List.filter (fun o -> Engine.violates ~kind:k o) outcomes)
        in
        if n = 0 then None else Some (k, n))
      all_kinds
  in
  let failing = List.filter (fun o -> Engine.violates o) outcomes in
  let findings =
    List.filteri (fun i _ -> i < max_findings) failing
    |> List.map (fun o ->
           {
             f_outcome = o;
             f_log_tail = harvest_log_tail o;
           })
  in
  {
    r_spec = spec;
    r_outcomes = outcomes;
    r_variant_stats = variant_stats;
    r_kind_counts = kind_counts;
    r_findings = findings;
  }

let violating_cells report ~variant =
  match
    List.find_opt (fun s -> s.vs_variant = variant) report.r_variant_stats
  with
  | Some s -> s.vs_violating
  | None -> 0

let summary report =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let spec = report.r_spec in
  line "chaos soak: seed %d, %d cells, %d fault kinds, kill prob %.2f"
    spec.Campaign.campaign_seed spec.Campaign.cells
    (List.length spec.Campaign.kinds) spec.Campaign.kill_prob;
  line "%-9s %6s %10s %11s" "variant" "cells" "violating" "violations";
  List.iter
    (fun s ->
      line "%-9s %6d %10d %11d"
        (Campaign.variant_name s.vs_variant)
        s.vs_cells s.vs_violating s.vs_violations)
    report.r_variant_stats;
  (* Reconfiguration-drill roll-up: only SPECTR+R cells carry a ladder
     status, so this line appears only in campaigns that ran them —
     pre-existing campaign summaries stay byte-identical. *)
  let r_cells =
    List.filter
      (fun o -> o.Engine.reconfig_status <> None)
      report.r_outcomes
  in
  (if r_cells <> [] then
     let ended s =
       List.length
         (List.filter (fun o -> o.Engine.reconfig_status = Some s) r_cells)
     in
     let swaps =
       List.fold_left (fun a o -> a + o.Engine.reconfigurations) 0 r_cells
     in
     line
       "reconfig drills: %d SPECTR+R cell%s — %d end reconfigured, %d \
        nominal, %d fallback (%d hot-swap%s)"
       (List.length r_cells)
       (if List.length r_cells = 1 then "" else "s")
       (ended "reconfigured") (ended "nominal") (ended "fallback") swaps
       (if swaps = 1 then "" else "s"));
  (match report.r_kind_counts with
  | [] -> line "no invariant violations"
  | counts ->
      List.iter
        (fun (k, n) ->
          line "  %-18s violated in %d cell%s" (Invariants.kind_name k) n
            (if n = 1 then "" else "s"))
        counts);
  List.iter
    (fun f ->
      let o = f.f_outcome in
      let c = o.Engine.cell in
      let v = List.hd o.Engine.violations in
      line "finding: cell %d (%s, seed %Ld)%s" c.Campaign.index
        (Campaign.variant_name c.Campaign.variant)
        c.Campaign.seed
        (match c.Campaign.kill with
        | Some k ->
            Printf.sprintf " kill@%d/stale %d" k.Campaign.kill_tick
              k.Campaign.staleness
        | None -> "");
      List.iter
        (fun i ->
          line "  fault %s" (Spectr_platform.Faults.injection_to_string i))
        c.Campaign.injections;
      line "  %s t=%.2fs: %s" (Invariants.kind_name v.Invariants.v_kind)
        v.Invariants.v_time v.Invariants.v_detail;
      (match f.f_log_tail with
      | [] -> ()
      | tail -> line "  decision log tail (%d entries):" (List.length tail));
      List.iter (fun l -> line "    %s" l) f.f_log_tail)
    report.r_findings;
  Buffer.contents b
