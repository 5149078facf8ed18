(* [perf.exe --smoke]: the benchmark's correctness gate at tiny sizes,
   run by [dune runtest].  Every workload runs untraced and traced; the
   gate fails when a digest pin breaks (the seed-42 SPECTR trace,
   modular = monolithic synthesis at k = 6), an operation fails, a
   traced pass changes a simulated output, or a result line misses a
   metric or its unit.  Silent on success, like the other tests; wall
   clock is never gated. *)

let failures = ref []
let check name ok = if not ok then failures := name :: !failures

(* The result line must parse and name every metric with its unit. *)
let check_line (r : Harness.result) expected =
  let tag = Printf.sprintf "%s (%s)" r.Harness.workload (if r.Harness.trace then "traced" else "untraced") in
  match Json.of_string (Json.to_string (Harness.summary_json r)) with
  | exception Json.Parse_error msg -> check (tag ^ ": result line parses: " ^ msg) false
  | j ->
      let metrics = Json.member "metrics" j in
      List.iter
        (fun (m : Catalog.metric) ->
          let entry = Option.bind metrics (Json.member m.Catalog.name) in
          let unit = Option.bind (Option.bind entry (Json.member "unit")) Json.to_str in
          let value = Option.bind (Option.bind entry (Json.member "value")) Json.to_num in
          check
            (Printf.sprintf "%s: metric %s with unit %s" tag m.Catalog.name m.Catalog.unit)
            (unit = Some m.Catalog.unit && value <> None))
        expected;
      List.iter
        (fun k -> check (Printf.sprintf "%s: key %s" tag k) (Json.member k j <> None))
        [ "correct"; "attempted"; "failed"; "metrics" ]

let check_result (r : Harness.result) expected =
  List.iter
    (fun (n, ok) -> check (Printf.sprintf "%s: %s" r.Harness.workload n) ok)
    r.Harness.checks;
  check (r.Harness.workload ^ ": no failed operation") (r.Harness.failed = 0);
  check (r.Harness.workload ^ ": at least one attempted") (r.Harness.attempted > 0);
  check_line r expected

let run ~benchmark =
  let seed = 42 in
  List.iter
    (fun w -> check_result (Harness.run ~smoke:true ~seed ~seconds:0. w) Catalog.end_to_end)
    (Harness.all ~smoke:true ~seed);
  let sections = Harness.sections ~smoke:true ~seed in
  List.iter
    (fun (name, _, _) ->
      check_result (Harness.traced_result ~seed ~name sections) Catalog.per_layer)
    sections;
  (match benchmark with
  | None -> ()
  | Some path ->
      let ic = open_in_bin path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check "BENCHMARK.json matches the metric catalog"
        (Json.of_string text
        = Json.of_string
            (Json.to_string (Catalog.benchmark_json ~run_seconds:Catalog.run_seconds))));
  match !failures with
  | [] -> ()
  | fs ->
      List.iter (fun f -> Printf.printf "smoke: FAILED %s\n" f) (List.rev fs);
      exit 1
