(* Runs one workload and turns its rounds (or its traced section) into
   the benchmark's result record. *)

let all ~smoke ~seed =
  [
    Wl_scenario.make ~smoke ~seed;
    Wl_fleet.make ~smoke ~seed;
    Wl_chaos.make ~smoke ~seed;
    Wl_synth.make ~smoke ~seed;
  ]

let find ~smoke ~seed name =
  List.find_opt (fun w -> w.Wl.name = name) (all ~smoke ~seed)

(* Lazily initialized library values that pool tasks would otherwise
   force for the first time from two domains at once, which raises
   [CamlinternalLazy.Undefined]: the reference-platform digest, and the
   state names of every supervisor automaton the parallel workloads
   share through the synthesis cache (the chaos legality monitor reads
   the live supervisor's state name every tick).  Forced once here, on
   the main domain, before any parallel work. *)
let force_shared_lazies () =
  let open Spectr_platform in
  ignore (Spectr.Design_flow.is_reference_platform Platform_desc.exynos5422 : bool);
  ignore (Spectr_exec.Parmap.jobs () : int);
  let commands =
    { Spectr.Supervisor.switch_gains = ignore; set_power_ref = (fun _ _ -> ()) }
  in
  List.iter
    (fun platform ->
      ignore
        (Spectr.Supervisor.state
           (Spectr.Supervisor.create ~platform ~commands ~envelope:5.0 ())
          : string))
    [
      Platform_desc.exynos5422;
      Platform_desc.degrade Platform_desc.exynos5422 (Platform_desc.Remove_cluster 1);
      Platform_desc.pixel8pro;
    ]

type value = {
  metric : Catalog.metric;
  v : float;
  rounds : float list;  (** The samples [v] summarizes. *)
}

type result = {
  workload : string;
  seed : int;
  trace : bool;
  correct : bool;
  attempted : int;
  failed : int;
  values : value list;
  checks : (string * bool) list;
  notes : string list;  (** Human-readable extra lines. *)
  raw : Tracer.raw_span list;
}

let metric name =
  match Catalog.find name with
  | Some m -> m
  | None -> invalid_arg ("Harness: metric missing from the catalog: " ^ name)

let min_rounds = 3
let setups_per_run = 7

(* --- set-up time, in fresh processes ----------------------------------- *)

let setup_marker = "setup_s "

(* One cold set-up: the body of [perf.exe --set-up W]. *)
let set_up_once (w : Wl.t) =
  force_shared_lazies ();
  let (), s = Timer.timed w.Wl.set_up in
  Printf.printf "%s%.17g\n%!" setup_marker s

(* Runs [perf.exe --set-up] in a child process, waits for it, and
   returns its set-up seconds. *)
let child_setup ~smoke ~seed name =
  let args =
    [ Sys.executable_name; "--set-up"; name; "--seed"; string_of_int seed ]
    @ if smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let rec read found =
    match input_line ic with
    | exception End_of_file -> found
    | line ->
        let m = String.length setup_marker in
        if String.length line > m && String.sub line 0 m = setup_marker then
          read (float_of_string_opt (String.sub line m (String.length line - m)))
        else read found
  in
  let found = read None in
  match (Unix.close_process_in ic, found) with
  | Unix.WEXITED 0, Some s -> s
  | _ -> failwith ("set-up child of workload " ^ name ^ " failed")

(* --- untraced run -------------------------------------------------------- *)

(* Rounds of a run: the workload's calibrated count scaled by [seconds],
   so the amount of work depends on the arguments only, never on how
   fast the rounds go. *)
let round_count ~smoke ~seconds (w : Wl.t) =
  if smoke then 2
  else
    max min_rounds
      (int_of_float
         (Float.round
            (float_of_int w.Wl.rounds *. seconds /. float_of_int Catalog.run_seconds)))

let run ~smoke ~seed ~seconds (w : Wl.t) =
  let n_rounds = round_count ~smoke ~seconds w in
  (* Cold set-ups, spread over the run rather than bunched at its start,
     so one stretch of contention from other tenants sways fewer of
     them: set-up [k] runs before round [k * n_rounds / n_setups]. *)
  let n_setups = if smoke then 1 else setups_per_run in
  let setups = ref [] in
  let set_ups_before i =
    while
      List.length !setups < n_setups
      && List.length !setups * n_rounds / n_setups <= i
    do
      setups := child_setup ~smoke ~seed w.Wl.name :: !setups
    done
  in
  set_ups_before 0;
  force_shared_lazies ();
  let round, checks = w.Wl.prepare () in
  let rounds =
    List.init n_rounds (fun i ->
        set_ups_before i;
        (* Every round starts from a collected heap, so no round pays
           for the previous one's garbage. *)
        Gc.full_major ();
        round ())
  in
  let setups = !setups in
  let first = List.hd rounds in
  let stable =
    List.for_all (fun r -> r.Wl.outputs = first.Wl.outputs) rounds
  in
  let attempted = List.fold_left (fun a r -> a + r.Wl.attempted) 0 rounds in
  let failed = List.fold_left (fun a r -> a + r.Wl.failed) 0 rounds in
  let checks =
    checks @ [ (w.Wl.name ^ ": outputs repeat in every round", stable) ]
  in
  let throughput =
    List.map (fun r -> r.Wl.units /. r.Wl.seconds) rounds
  in
  let rss = Timer.peak_rss_mb () in
  {
    workload = w.Wl.name;
    seed;
    trace = false;
    correct = failed = 0 && List.for_all snd checks;
    attempted;
    failed;
    values =
      [
        (* The best of the run's fixed number of rounds.  Interference
           from other tenants only ever slows a round, in bursts of a
           few seconds that slow it by up to 1.8x, so the fastest round
           is the steadiest estimate of the code's own speed; the parent
           and a change run the same number of rounds, so neither gets
           more draws.  --json keeps every round and their quartiles. *)
        { metric = metric "throughput_per_s"; v = List.fold_left Float.max 0. throughput;
          rounds = throughput };
        { metric = metric "setup_s"; v = Stats.median setups; rounds = setups };
        { metric = metric "peak_rss_mb"; v = rss; rounds = [ rss ] };
      ];
    checks;
    notes =
      [
        Printf.sprintf "rounds %d, %.0f work units each, %d jobs" (List.length rounds)
          first.Wl.units (Spectr_exec.Parmap.jobs ());
      ];
    raw = [];
  }

(* --- traced run ---------------------------------------------------------- *)

(* Every workload's traced section, in a fixed order, so each traced run
   reports every per-layer metric; gap and tracing overhead refer to the
   workload the run is for. *)
let sections ~smoke ~seed =
  force_shared_lazies ();
  List.map
    (fun w ->
      let s = w.Wl.traced () in
      (w.Wl.name, s, Tracer.raw_sample ()))
    (all ~smoke ~seed)

let traced_result ~seed ~name sections =
  let _, mine, raw = List.find (fun (n, _, _) -> n = name) sections in
  let t = mine.Wl.timing in
  let pairs =
    List.concat_map (fun (_, s, _) -> s.Wl.metrics) sections
    @ [
        ("throughput_per_s", mine.Wl.throughput);
        ( "gap_pct",
          100. *. (t.Wl.traced_s -. t.Wl.attributed_s) /. t.Wl.traced_s );
        ("trace_overhead_pct", 100. *. (t.Wl.traced_s -. t.Wl.untraced_s) /. t.Wl.untraced_s);
      ]
  in
  let values =
    List.map (fun (n, v) -> { metric = metric n; v; rounds = [ v ] }) pairs
  in
  let missing =
    List.filter
      (fun m -> not (List.exists (fun x -> x.metric.Catalog.name = m.Catalog.name) values))
      Catalog.per_layer
  in
  let checks =
    List.map
      (fun (n, s, _) -> (n ^ ": traced and untraced outputs identical", s.Wl.same_outputs))
      sections
    @ [
        ("every per-layer metric measured", missing = []);
        ( "every per-layer value finite",
          List.for_all (fun x -> Float.is_finite x.v) values );
      ]
  in
  {
    workload = name;
    seed;
    trace = true;
    correct = mine.Wl.t_failed = 0 && List.for_all snd checks;
    attempted = mine.Wl.t_attempted;
    failed = mine.Wl.t_failed;
    values;
    checks;
    notes = List.concat_map (fun (_, s, _) -> s.Wl.report) sections;
    raw;
  }

(* --- output -------------------------------------------------------------- *)

let metrics_json r =
  Json.Obj
    (List.map
       (fun x ->
         (x.metric.Catalog.name, Json.Obj [ ("value", Json.Num x.v); ("unit", Json.Str x.metric.Catalog.unit) ]))
       r.values)

(* The result line every run ends with: the end-to-end metrics of an
   untraced run, the per-layer metrics of a traced one. *)
let summary_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ( "metrics",
        metrics_json
          {
            r with
            values =
              List.filter (fun x -> (x.metric.Catalog.bound = None) = r.trace) r.values;
          } );
    ]

(* The full record for [--json FILE]: per-round values, quartiles,
   bounds, checks and the raw span sample. *)
let detail_json r =
  let open Json in
  let value x =
    let q1, q3 = Stats.quartiles x.rounds in
    ( x.metric.Catalog.name,
      Obj
        ([
           ("value", Num x.v);
           ("unit", Str x.metric.Catalog.unit);
           ("better", Str (Catalog.better_string x.metric.Catalog.better));
           ("q1", Num q1);
           ("q3", Num q3);
           ("rounds", Arr (List.map (fun v -> Num v) x.rounds));
         ]
        @ match x.metric.Catalog.bound with Some b -> [ ("bound", Num b) ] | None -> []) )
  in
  Obj
    [
      ("workload", Str r.workload);
      ("seed", Num (float_of_int r.seed));
      ("trace", Bool r.trace);
      ("jobs", Num (float_of_int (Spectr_exec.Parmap.jobs ())));
      ("correct", Bool r.correct);
      ("attempted", Num (float_of_int r.attempted));
      ("failed", Num (float_of_int r.failed));
      ("metrics", Obj (List.map value r.values));
      ("checks", Obj (List.map (fun (n, ok) -> (n, Bool ok)) r.checks));
      ( "raw_spans",
        Arr
          (List.map
             (fun s ->
               Obj
                 [
                   ("name", Str s.Tracer.r_name);
                   ("id", Num (float_of_int s.Tracer.r_id));
                   ("parent", Num (float_of_int s.Tracer.r_parent));
                   ("start_ns", Num (float_of_int s.Tracer.r_start_ns));
                   ("end_ns", Num (float_of_int s.Tracer.r_end_ns));
                 ])
             r.raw) );
    ]

let print r =
  Printf.printf "workload %s  seed %d  %s\n" r.workload r.seed
    (if r.trace then "traced" else "untraced");
  List.iter (fun l -> Printf.printf "%s\n" l) r.notes;
  List.iter
    (fun x ->
      let q1, q3 = Stats.quartiles x.rounds in
      Printf.printf "  %-40s %16.6g %-6s" x.metric.Catalog.name x.v x.metric.Catalog.unit;
      if List.length x.rounds > 1 then
        Printf.printf "  [q1 %.6g, q3 %.6g over %d]" q1 q3 (List.length x.rounds);
      print_newline ())
    r.values;
  List.iter
    (fun (n, ok) -> Printf.printf "  check %-58s %s\n" n (if ok then "ok" else "FAILED"))
    r.checks;
  Printf.printf "  attempted %d, failed %d, correct %b\n" r.attempted r.failed r.correct;
  print_endline (Json.to_string (summary_json r))

let write_json path r =
  let oc = open_out path in
  output_string oc (Json.to_string (detail_json r));
  output_char oc '\n';
  close_out oc
