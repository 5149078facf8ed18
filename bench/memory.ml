(* Per-phase memory probe: what the perf bench's single [peak_rss_mb]
   figure is made of.

     dune exec bench/main.exe -- memory

   The top heap and VmHWM are process-wide high-water marks, so the
   phases run from the smallest peak up.  First the perf bench's chaos
   campaign (600 faulted 240-tick cells over every variant, seed 42, a
   quarter with a permanent-fault drill): its cells one by one in this
   domain through a warm arena, for the minor-heap and promoted KB per
   cell, then the whole campaign again as a sweep on a 2-job pool, after
   which the "chaos" row reads the soak's peak.  Then the perf bench's
   512-node fleet (exynos5422 and pixel8pro interleaved, epochs of 5
   ticks, arrivals on, one kill per epoch, on the same pool): a 1-epoch
   run, then a 120-epoch one, whose rows show what its epochs add to
   its construction.  It then prints the bytes promoted to the major heap per epoch, split
   into steady epochs (kill rate 0) and epochs with kills and restarts
   (kill rate 1), each a 120-epoch run minus a 20-epoch one.  Last comes
   one synthesis round (sharded modular k = 11, monolithic k = 9, then
   the supervisors of a few descriptions and their one-cluster
   degradations with the synthesis cache cleared before each).
   After each phase it prints the process's peak RSS (VmHWM), the major
   heap and its high-water mark ([Gc.quick_stat] heap and top-heap
   words).  Figures depend on the machine and the job count; nothing
   here is pinned and no gate reads it. *)

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

let phase name =
  let s = Gc.quick_stat () in
  Printf.printf "  %-9s %9.1f %9.1f %12.1f\n%!" name (vm_hwm_mb ())
    (mb_of_words s.Gc.heap_words)
    (mb_of_words s.Gc.top_heap_words)

let synth_round () =
  let family ~k ~cap =
    ( List.init k (fun i -> Synthesis_scale.cluster (i + 1)),
      Synthesis_scale.budget_spec ~k ~cap )
  in
  let plants, spec = family ~k:11 ~cap:6 in
  (match Synthesis.supcon_modular ~jobs:2 ~plants ~spec () with
  | Ok (sup, _) -> ignore (Verify.is_nonblocking sup : bool)
  | Error Synthesis.Empty_supervisor -> failwith "memory: empty supervisor");
  let plants, spec = family ~k:9 ~cap:8 in
  let plant = Compose.all plants in
  (match Synthesis.supcon ~plant ~spec with
  | Ok (sup, _) ->
      ignore (Verify.is_controllable ~plant ~supervisor:sup : bool);
      ignore (Verify.is_nonblocking sup : bool)
  | Error Synthesis.Empty_supervisor -> failwith "memory: empty supervisor");
  let base =
    Platform_desc.[ k_cluster 4; k_cluster 8; pixel8pro; exynos5422 ]
  in
  List.iter
    (fun platform ->
      Spectr_exec.Synth_cache.clear ();
      ignore (Spectr.Supervisor.synthesize ~platform ()))
    (base
    @ List.map
        (fun p ->
          let victim = if Platform_desc.host p = 0 then 1 else 0 in
          Platform_desc.degrade p (Platform_desc.Remove_cluster victim))
        base)

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
   construction and boot cancel.  Each run starts on a finished major
   cycle. *)
let promoted_kb_per_epoch ~pool ~kill_rate =
  let promoted epochs =
    Gc.full_major ();
    let p0 = (Gc.quick_stat ()).Gc.promoted_words in
    fleet_run ~pool (fleet_spec ~epochs ~kill_rate);
    (Gc.quick_stat ()).Gc.promoted_words -. p0
  in
  let short = promoted 20 in
  let long = promoted 120 in
  (long -. short) *. float_of_int (Sys.word_size / 8) /. 1024. /. 100.

let run () =
  Util.heading "Memory: peak RSS and major heap after each phase";
  Printf.printf "\n  %-9s %9s %9s %12s\n" "phase" "VmHWM-MB" "heap-MB"
    "top-heap-MB";
  phase "start";
  let pool = Spectr_exec.Pool.create ~jobs:2 () in
  let (minor, promoted), steady, restarts =
    Fun.protect
      ~finally:(fun () -> Spectr_exec.Pool.shutdown pool)
      (fun () ->
        let cells = chaos_cells () in
        let per_cell = chaos_kb_per_cell cells in
        chaos_sweep ~pool cells;
        phase "chaos";
        fleet_run ~pool (fleet_spec ~epochs:1 ~kill_rate:1.);
        phase "fleet-1";
        fleet_run ~pool (fleet_spec ~epochs:120 ~kill_rate:1.);
        phase "fleet-120";
        let steady = promoted_kb_per_epoch ~pool ~kill_rate:0. in
        (per_cell, steady, promoted_kb_per_epoch ~pool ~kill_rate:1.))
  in
  synth_round ();
  phase "synth";
  Printf.printf
    "\n  chaos: 600 cells, run one by one; KB per cell: %.1f minor heap, %.2f \
     promoted\n"
    minor promoted;
  Printf.printf
    "  fleet: 512 nodes; KB promoted per epoch: %.1f steady (kill rate 0), \
     %.1f with restarts (kill rate 1)\n"
    steady restarts
