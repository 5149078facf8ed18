(* Shared helpers for the benchmark harness.

   Parallel-execution discipline: every experiment computes first —
   fanning its scenario grid out with [Spectr_exec.Parmap.map], whose
   results come back in submission order — and prints second, from the
   main domain only.  Tasks construct their managers from scratch (a
   manager is stateful; sharing one across scenarios would make results
   depend on execution order) and never touch shared mutable state, so
   tables and traces are byte-identical for any SPECTR_JOBS value. *)

let heading title =
  Printf.printf "\n=============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "=============================================================\n"

let subheading title = Printf.printf "\n--- %s\n" title

(* Print a time series subsampled to at most [points] rows plus the final
   one: the stride loop alone would leave the steady-state value shown in
   figures up to stride-1 steps stale. *)
let print_series ~columns ~time rows =
  let n = Array.length time in
  let points = 30 in
  let stride = max 1 (n / points) in
  Printf.printf "%8s" "time";
  List.iter (fun c -> Printf.printf " %10s" c) columns;
  print_newline ();
  let emit i =
    Printf.printf "%8.2f" time.(i);
    List.iter (fun v -> Printf.printf " %10.3f" v.(i)) rows;
    print_newline ()
  in
  let i = ref 0 in
  while !i < n do
    emit !i;
    i := !i + stride
  done;
  (* The loop's last emitted index was !i - stride. *)
  if n > 0 && !i - stride <> n - 1 then emit (n - 1)

(* A fresh manager of a catalogue variant on a description: each
   parallel task builds its own instance.  (The pre-parallel harness
   reused manager instances across scenario runs, leaking controller and
   supervisor state from one run into the next.) *)
let build platform v () =
  let manager, _, _, _ = Spectr.Variant.make platform v in
  manager

(* The four resource managers of the evaluation, as constructors. *)
let manager_specs () : (string * (unit -> Spectr.Manager.t)) list =
  List.map
    (fun v ->
      (Spectr.Variant.name v, build Spectr_platform.Platform_desc.exynos5422 v))
    Spectr.Variant.[ Spectr; Mm_pow; Mm_perf; Fs ]

(* The evaluation-grid columns: every (manager, platform) pair a cell
   runs.  The four exynos columns above, plus SPECTR driving the
   3-cluster pixel8pro description — each new platform is a new column
   axis, not a new harness. *)
let grid_specs () :
    (string * Spectr_platform.Platform_desc.t * (unit -> Spectr.Manager.t))
    list =
  let exynos = Spectr_platform.Platform_desc.exynos5422 in
  let p8p = Spectr_platform.Platform_desc.pixel8pro in
  List.map (fun (name, mk) -> (name, exynos, mk)) (manager_specs ())
  @ [ ("SPECTR-3c", p8p, build p8p Spectr.Variant.Spectr) ]

(* Run one scenario per (label, constructor) pair, fanned out across the
   pool; results are in input order. *)
let run_scenarios ~config specs =
  Spectr_exec.Parmap.map
    (fun (name, make_manager) ->
      (name, Spectr.Scenario.run ~manager:(make_manager ()) config))
    specs
