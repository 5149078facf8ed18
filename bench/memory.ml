(* Per-phase memory probe: what the perf bench's single [peak_rss_mb]
   figure is made of.

     dune exec bench/main.exe -- memory

   Each phase runs in a child process of its own (the same executable,
   run as [main.exe memory.PHASE]; any one phase can be run that way by
   hand), because VmHWM and the top heap are process-wide high-water
   marks: a phase run after another would read the other's garbage
   too.  The phases:
   - [chaos]: the perf bench's chaos campaign (600 faulted 240-tick
     cells over every variant, seed 42, a quarter with a
     permanent-fault drill), its cells one by one in this domain
     through a warm arena, for the minor-heap and promoted KB per cell,
     then the whole campaign again as a sweep on a 2-job pool;
   - [fleet-1], [fleet-120]: the perf bench's 512-node fleet
     (exynos5422 and pixel8pro interleaved, epochs of 5 ticks, arrivals
     on, one kill per epoch, on a 2-job pool) for 1 and for 120 epochs,
     so the two rows differ by what the epochs add to construction;
   - [promotion]: the bytes promoted to the major heap per epoch, split
     into steady epochs (kill rate 0) and epochs with kills and
     restarts (kill rate 1), each a 120-epoch run minus a 20-epoch one;
   - [synth-wide], [synth-mono], [synth-platforms]: the three parts of
     one synthesis round — modular k = 11 with
     [Verify.is_nonblocking]; [Compose.all] and monolithic [supcon] at
     k = 9 with both [Verify] checks; the supervisors of a few
     descriptions and their one-cluster degradations, the synthesis
     cache cleared before each.  Their rows add the MB they allocate
     (one domain does all of it).
   After its phase a child prints its peak RSS (VmHWM), the major heap
   and its high-water mark ([Gc.quick_stat] heap and top-heap words).
   Figures depend on the machine and the job count; nothing here is
   pinned and no gate reads it. *)

open Spectr_automata
open Spectr_platform
module Chaos = Spectr_chaos

(* VmHWM in MB from /proc/self/status; 0 where /proc is unavailable. *)
let vm_hwm_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.

(* One row: the process's high-water marks now, and the MB [alloc]
   counted, where the phase counts them. *)
let row ?alloc name =
  let s = Gc.quick_stat () in
  Printf.printf "  %-16s %9.1f %9.1f %12.1f %9s\n%!" name (vm_hwm_mb ())
    (mb_of_words s.Gc.heap_words)
    (mb_of_words s.Gc.top_heap_words)
    (match alloc with Some mb -> Printf.sprintf "%.1f" mb | None -> "-")

(* Run [f] and print its row with the MB it allocated in this domain. *)
let allocating name f =
  let b0 = Gc.allocated_bytes () in
  f ();
  row ~alloc:((Gc.allocated_bytes () -. b0) /. 1048576.) name

let family ~k ~cap =
  ( List.init k (fun i -> Synthesis_scale.cluster (i + 1)),
    Synthesis_scale.budget_spec ~k ~cap )

let synth_wide () =
  let plants, spec = family ~k:11 ~cap:6 in
  allocating "synth-wide" (fun () ->
      match Synthesis.supcon_modular ~plants ~spec () with
      | Ok (sup, _) -> ignore (Verify.is_nonblocking sup : bool)
      | Error Synthesis.Empty_supervisor -> failwith "memory: empty supervisor")

let synth_mono () =
  let plants, spec = family ~k:9 ~cap:8 in
  allocating "synth-mono" (fun () ->
      let plant = Compose.all plants in
      match Synthesis.supcon ~plant ~spec with
      | Ok (sup, _) ->
          ignore (Verify.is_controllable ~plant ~supervisor:sup : bool);
          ignore (Verify.is_nonblocking sup : bool)
      | Error Synthesis.Empty_supervisor -> failwith "memory: empty supervisor")

let synth_platforms () =
  let base =
    Platform_desc.[ k_cluster 4; k_cluster 8; pixel8pro; exynos5422 ]
  in
  let platforms =
    base
    @ List.map
        (fun p ->
          let victim = if Platform_desc.host p = 0 then 1 else 0 in
          Platform_desc.degrade p (Platform_desc.Remove_cluster victim))
        base
  in
  allocating "synth-platforms" (fun () ->
      List.iter
        (fun platform ->
          Spectr_exec.Synth_cache.clear ();
          ignore (Spectr.Supervisor.synthesize ~platform ()))
        platforms)

let chaos_cells () =
  let spec =
    Chaos.Campaign.default_spec ~seed:42 ~cells:600
      ~variants:(Chaos.Campaign.Spectr_r :: Chaos.Campaign.all_variants)
      ~reconfig_prob:0.25 ()
  in
  List.init spec.Chaos.Campaign.cells (Chaos.Campaign.cell_of_spec spec)

(* Minor-heap and promoted KB per cell, the cells run one by one in this
   domain through one warm arena (as each sweep domain runs them). *)
let chaos_kb_per_cell cells =
  let arena = Chaos.Arena.create () in
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  List.iter (fun c -> ignore (Chaos.Engine.run_cell ~arena c)) cells;
  let s1 = Gc.quick_stat () in
  let kb w = w *. float_of_int (Sys.word_size / 8) /. 1024. in
  let n = float_of_int (List.length cells) in
  ( kb (s1.Gc.minor_words -. s0.Gc.minor_words) /. n,
    kb (s1.Gc.promoted_words -. s0.Gc.promoted_words) /. n )

let chaos_sweep ~pool cells =
  let arena = Chaos.Arena.create () in
  ignore
    (Spectr_exec.Parmap.map ~pool (Chaos.Engine.run_cell ~arena) cells
      : Chaos.Engine.outcome list)

let fleet_spec ~epochs ~kill_rate =
  let nodes = 512 in
  {
    Spectr_fleet.Fleet.default_spec with
    Spectr_fleet.Fleet.nodes;
    epochs;
    ticks_per_epoch = 5;
    global_cap = float_of_int nodes *. 2.5;
    arrival_rate = 8.;
    kill_rate;
    platforms = Platform_desc.[| exynos5422; pixel8pro |];
  }

let fleet_run ~pool spec =
  ignore (Spectr_fleet.Fleet.run ~pool spec : Spectr_fleet.Fleet.result)

(* KB promoted per epoch: a 120-epoch run minus a 20-epoch one, so
   construction and boot cancel.  A 1-epoch run first fills what the
   process builds once (the synthesis cache among them), and each run
   starts on a finished major cycle. *)
let promoted_kb_per_epoch ~pool ~kill_rate =
  fleet_run ~pool (fleet_spec ~epochs:1 ~kill_rate);
  let promoted epochs =
    Gc.full_major ();
    let p0 = (Gc.quick_stat ()).Gc.promoted_words in
    fleet_run ~pool (fleet_spec ~epochs ~kill_rate);
    (Gc.quick_stat ()).Gc.promoted_words -. p0
  in
  let short = promoted 20 in
  let long = promoted 120 in
  (long -. short) *. float_of_int (Sys.word_size / 8) /. 1024. /. 100.

let with_pool f =
  let pool = Spectr_exec.Pool.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Spectr_exec.Pool.shutdown pool) (fun () ->
      f pool)

let chaos () =
  let cells = chaos_cells () in
  let minor, promoted = chaos_kb_per_cell cells in
  with_pool (fun pool -> chaos_sweep ~pool cells);
  row "chaos";
  Printf.printf
    "  %-16s 600 cells, run one by one; KB per cell: %.1f minor heap, %.2f \
     promoted\n%!"
    "" minor promoted

let fleet epochs () =
  with_pool (fun pool -> fleet_run ~pool (fleet_spec ~epochs ~kill_rate:1.));
  row (Printf.sprintf "fleet-%d" epochs)

let promotion () =
  let steady, restarts =
    with_pool (fun pool ->
        let steady = promoted_kb_per_epoch ~pool ~kill_rate:0. in
        (steady, promoted_kb_per_epoch ~pool ~kill_rate:1.))
  in
  row "promotion";
  Printf.printf
    "  %-16s 512 nodes; KB promoted per epoch: %.1f steady (kill rate 0), \
     %.1f with restarts (kill rate 1)\n%!"
    "" steady restarts

(* Each phase by name, as [main.exe] runs it: [memory.chaos] and so on. *)
let phases =
  List.map
    (fun (name, f) -> ("memory." ^ name, f))
    [
      ("chaos", chaos);
      ("fleet-1", fleet 1);
      ("fleet-120", fleet 120);
      ("promotion", promotion);
      ("synth-wide", synth_wide);
      ("synth-mono", synth_mono);
      ("synth-platforms", synth_platforms);
    ]

let run () =
  Util.heading "Memory: peak RSS and major heap, each phase in its own process";
  Printf.printf "\n  %-16s %9s %9s %12s %9s\n" "phase" "VmHWM-MB" "heap-MB"
    "top-heap-MB" "alloc-MB";
  row "start";
  List.iter
    (fun (name, _) ->
      let cmd = Filename.quote_command Sys.executable_name [ name ] in
      if Sys.command cmd <> 0 then failwith ("memory: " ^ cmd ^ " failed"))
    phases
