(* The SPECTR benchmark.

     perf.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--json F]
     perf.exe --smoke [--benchmark BENCHMARK.json]
     perf.exe compare A.json... vs B.json...
     perf.exe --benchmark-json

   See README.md in this directory for the workloads, the metrics and
   how to read them.  Seed 7 is held out for confirming claims. *)

let usage () =
  prerr_endline
    "usage: perf.exe --workload {scenario|fleet|chaos|synth} [--seed N] \
     [--seconds S] [--trace 0|1] [--json FILE]\n\
    \       perf.exe --smoke [--benchmark BENCHMARK.json]\n\
    \       perf.exe compare A.json... vs B.json...\n\
    \       perf.exe --benchmark-json";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable json : string option;
  mutable smoke : bool;
  mutable set_up : string option;
  mutable benchmark : string option;
  mutable print_benchmark : bool;
}

let parse args =
  let o =
    {
      workload = None;
      seed = 42;
      seconds = float_of_int Catalog.run_seconds;
      trace = false;
      json = None;
      smoke = false;
      set_up = None;
      benchmark = None;
      print_benchmark = false;
    }
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> o
    | "--workload" :: w :: rest ->
        o.workload <- Some w;
        go rest
    | "--seed" :: s :: rest ->
        o.seed <- int s;
        go rest
    | "--seconds" :: s :: rest ->
        o.seconds <- float_of_int (int s);
        go rest
    | "--trace" :: t :: rest ->
        o.trace <- int t <> 0;
        go rest
    | "--json" :: f :: rest ->
        o.json <- Some f;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--set-up" :: w :: rest ->
        o.set_up <- Some w;
        go rest
    | "--benchmark" :: f :: rest ->
        o.benchmark <- Some f;
        go rest
    | "--benchmark-json" :: rest ->
        o.print_benchmark <- true;
        go rest
    | _ -> usage ()
  in
  go args

let workload o name =
  match Harness.find ~smoke:o.smoke ~seed:o.seed name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (scenario, fleet, chaos, synth)\n" name;
      exit 2

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: files -> Compare.run files
  | args -> (
      let o = parse args in
      match (o.set_up, o.workload) with
      | Some name, _ -> Harness.set_up_once (workload o name)
      | None, Some name ->
          let w = workload o name in
          let r =
            if o.trace then
              Harness.traced_result ~seed:o.seed ~name
                (Harness.sections ~smoke:o.smoke ~seed:o.seed)
            else Harness.run ~smoke:o.smoke ~seed:o.seed ~seconds:o.seconds w
          in
          Option.iter (fun f -> Harness.write_json f r) o.json;
          Harness.print r
      | None, None ->
          if o.print_benchmark then
            print_endline
              (Json.to_string (Catalog.benchmark_json ~run_seconds:Catalog.run_seconds))
          else if o.smoke then Smoke.run ~benchmark:o.benchmark
          else usage ())
