(* Tests for the parallel scenario-execution engine (Spectr_exec):
   the domain worker pool, the ordered Parmap combinators, and the
   synthesis cache.

   The determinism test is the acceptance criterion of the parallel
   harness: the same scenario grid run on a 4-job pool and on a 1-job
   (purely sequential, zero domains spawned) pool must produce
   byte-identical traces. *)

open Spectr_automata
open Spectr_platform
open Spectr_exec

module Scenario = Spectr.Scenario

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* SPECTR_JOBS parsing                                                 *)
(* ------------------------------------------------------------------ *)

let test_parse_jobs () =
  check_bool "positive" true (Pool.parse_jobs "4" = Some 4);
  check_bool "one" true (Pool.parse_jobs "1" = Some 1);
  check_bool "zero rejected" true (Pool.parse_jobs "0" = None);
  check_bool "negative rejected" true (Pool.parse_jobs "-2" = None);
  check_bool "garbage rejected" true (Pool.parse_jobs "x" = None);
  check_bool "empty rejected" true (Pool.parse_jobs "" = None);
  check_bool "default >= 1" true (Pool.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                      *)
(* ------------------------------------------------------------------ *)

let with_pool ~jobs f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let test_pool_map_ordered () =
  (* A map over enough elements to force every worker through many
     tasks must come back in submission order. *)
  let xs = List.init 1000 Fun.id in
  let f x = (x * x) + 1 in
  let expect = List.map f xs in
  with_pool ~jobs:4 (fun pool ->
      check_bool "jobs" true (Pool.jobs pool = 4);
      check_bool "ordered" true (Pool.map pool f xs = expect));
  with_pool ~jobs:1 (fun pool ->
      check_bool "sequential identical" true (Pool.map pool f xs = expect))

let test_pool_map_empty_and_tiny () =
  with_pool ~jobs:4 (fun pool ->
      check_bool "empty" true (Pool.map pool (fun x -> x) [] = []);
      check_bool "singleton" true (Pool.map pool string_of_int [ 7 ] = [ "7" ]))

let test_pool_exception_propagation () =
  (* The smallest-index failure wins, deterministically, regardless of
     which domain hits its exception first. *)
  with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "smallest index re-raised" (Failure "boom 3")
        (fun () ->
          ignore
            (Pool.map pool
               (fun x ->
                 if x >= 3 then failwith (Printf.sprintf "boom %d" x) else x)
               (List.init 64 Fun.id))))

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~jobs:3 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* After shutdown, map still works (sequential fallback). *)
  check_bool "fallback after shutdown" true
    (Pool.map pool (fun x -> x + 1) [ 1; 2; 3 ] = [ 2; 3; 4 ])

let test_pool_invalid_jobs () =
  Alcotest.check_raises "jobs < 1 rejected"
    (Invalid_argument "Pool.create: jobs < 1") (fun () ->
      ignore (Pool.create ~jobs:0 ()))

let test_pool_reentrant_map_rejected () =
  (* A task that maps over its own pool would deadlock on the shared
     queue; it must be rejected immediately instead. *)
  with_pool ~jobs:2 (fun pool ->
      Alcotest.check_raises "re-entrant map rejected"
        (Invalid_argument
           "Pool.map: re-entrant call from inside a task of this pool")
        (fun () ->
          ignore (Pool.map pool (fun _ -> Pool.map pool Fun.id [ 1; 2 ]) [ 0; 1 ])));
  (* Mapping over a *different* pool from inside a task is legal. *)
  with_pool ~jobs:2 (fun outer ->
      with_pool ~jobs:2 (fun inner ->
          let r =
            Pool.map outer
              (fun x ->
                List.fold_left ( + ) 0 (Pool.map inner Fun.id (List.init x Fun.id)))
              [ 3; 4 ]
          in
          check_bool "nested map over a different pool" true (r = [ 3; 6 ])))

let contains hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  go 0

(* Kept non-tail-recursive on purpose: each level leaves a stack frame,
   so the raised exception's backtrace names this file. *)
let rec deep_raise n = if n = 0 then failwith "deep" else 1 + deep_raise (n - 1)

let test_pool_backtrace_preserved () =
  (* Task exceptions cross the worker-domain boundary with their
     original backtrace ([raise_with_backtrace] in [map]; the workers
     inherit the creator's recording flag, so this must be set before
     the pool is created). *)
  Printexc.record_backtrace true;
  with_pool ~jobs:2 (fun pool ->
      match Pool.map pool (fun _ -> deep_raise 12) [ 0; 1 ] with
      | _ -> Alcotest.fail "expected the task exception to propagate"
      | exception Failure _ ->
          let bt = Printexc.get_backtrace () in
          check_bool "backtrace names the raising function's file" true
            (contains bt "test_exec"))

let test_default_pool_two_domains () =
  (* The default pool is created by whichever domain first asks for it;
     two domains asking at the same instant must both get it (a plain
     [lazy] raised [CamlinternalLazy.Undefined] in the loser).  Nothing
     earlier in this suite touches the default pool. *)
  let arrived = Atomic.make 0 in
  let force () =
    Atomic.incr arrived;
    while Atomic.get arrived < 2 do
      Domain.cpu_relax ()
    done;
    Parmap.jobs ()
  in
  let a = Domain.spawn force and b = Domain.spawn force in
  let ja = Domain.join a and jb = Domain.join b in
  check_int "first domain sees the default size" (Pool.default_jobs ()) ja;
  check_int "second domain sees the default size" (Pool.default_jobs ()) jb;
  check_bool "the pool works after the race" true
    (Parmap.map succ [ 1; 2; 3 ] = [ 2; 3; 4 ])

(* The domain-local marker behind the re-entrancy check is set for every
   task — list and array maps, the default pool, each job count — and
   restored after each map, also a raising one, so the pool stays usable
   from the submitting domain. *)
let test_reentrancy_marker () =
  let reentrant =
    Invalid_argument "Pool.map: re-entrant call from inside a task of this pool"
  in
  Alcotest.check_raises "nested default-pool map rejected" reentrant (fun () ->
      ignore (Parmap.map (fun _ -> Parmap.map Fun.id [ 1 ]) [ 0; 1 ]));
  check_bool "default pool usable after" true (Parmap.map succ [ 1 ] = [ 2 ]);
  List.iter
    (fun jobs ->
      with_pool ~jobs (fun pool ->
          let label what = Printf.sprintf "%s, %d-job pool" what jobs in
          Alcotest.check_raises (label "nested list map rejected") reentrant (fun () ->
              ignore (Pool.map pool (fun _ -> Pool.map pool Fun.id [ 1 ]) [ 0; 1 ]));
          Alcotest.check_raises (label "nested array map rejected") reentrant
            (fun () ->
              ignore
                (Pool.map_array pool
                   (fun _ -> Pool.map_array pool Fun.id [| 1 |])
                   [| 0; 1 |]));
          check_bool (label "usable after a rejected nest") true
            (Pool.map pool succ [ 1; 2 ] = [ 2; 3 ]);
          (match Pool.map pool (fun x -> if x = 5 then failwith "five" else x)
                   (List.init 8 Fun.id) with
          | _ -> Alcotest.fail "expected the task exception"
          | exception Failure _ -> ());
          check_bool (label "usable after a raising map") true
            (Pool.map pool succ [ 1; 2 ] = [ 2; 3 ])))
    [ 1; 2; 4 ]

let test_parmap_combinators () =
  with_pool ~jobs:4 (fun pool ->
      check_bool "map" true
        (Parmap.map ~pool (fun x -> 2 * x) [ 1; 2; 3 ] = [ 2; 4; 6 ]);
      check_bool "mapi" true
        (Parmap.mapi ~pool (fun i x -> (i, x)) [ "a"; "b" ]
        = [ (0, "a"); (1, "b") ]);
      (* iter runs every task to completion before returning; each task
         writes a distinct slot so this is race-free. *)
      let hits = Array.make 16 0 in
      Parmap.iter ~pool (fun i -> hits.(i) <- hits.(i) + 1)
        (List.init 16 Fun.id);
      check_bool "iter barrier" true (Array.for_all (( = ) 1) hits))

(* The per-description memos behind supervisor construction: two pool
   tasks racing on a fresh description, each with its own (equal)
   description value, must get the one physical spec and plant. *)
let test_description_memos_shared () =
  with_pool ~jobs:2 (fun pool ->
      let build _ =
        let d = Platform_desc.k_cluster ~cores_per_cluster:3 7 in
        (Spectr.Spec.of_platform d, Spectr.Plant_model.composed_for d)
      in
      match Pool.map pool build [ 0; 1 ] with
      | [ (s1, p1); (s2, p2) ] ->
          check_bool "one spec" true (s1 == s2);
          check_bool "one plant" true (p1 == p2)
      | _ -> Alcotest.fail "two results expected")

(* ------------------------------------------------------------------ *)
(* Event interning under contention                                    *)
(* ------------------------------------------------------------------ *)

let test_event_interning_under_contention () =
  (* Several pool tasks intern overlapping name sets at once.  Every
     (name, controllability) pair must come back as one physical value
     whichever task interned it first, and distinct pairs must get
     distinct ids: a new event's id is the intern-table size, read under
     the intern mutex. *)
  let tagged i = Printf.sprintf "contention_ev_%d" i in
  let intern w = Array.init 200 (fun i -> Event.controllable (tagged ((i + w) mod 200))) in
  with_pool ~jobs:4 (fun pool ->
      let results = Pool.map pool intern [ 0; 1; 2; 3; 4; 5 ] in
      let canonical = Array.init 200 (fun i -> Event.controllable (tagged i)) in
      List.iteri
        (fun w evs ->
          Array.iteri
            (fun i e ->
              if e != canonical.((i + w) mod 200) then
                Alcotest.failf "task %d got a second copy of %s" w (Event.name e))
            evs)
        results;
      let ids = Array.to_list (Array.map Event.id canonical) in
      check_int "distinct ids" 200 (List.length (List.sort_uniq compare ids)))

(* ------------------------------------------------------------------ *)
(* Synthesis cache                                                     *)
(* ------------------------------------------------------------------ *)

(* A tiny plant/spec pair independent of the case study: one machine
   with an uncontrollable finish, and a spec forcing strict start/finish
   alternation. *)
let tiny_plant () =
  let start = Event.controllable "start" in
  let finish = Event.uncontrollable "finish" in
  Automaton.create ~name:"M" ~initial:"Idle" ~marked:[ "Idle" ]
    ~transitions:
      [ ("Idle", start, "Working"); ("Working", finish, "Idle") ]
    ()

let tiny_spec () =
  let start = Event.controllable "start" in
  let finish = Event.uncontrollable "finish" in
  Automaton.create ~name:"Alt" ~initial:"S0" ~marked:[ "S0" ]
    ~transitions:[ ("S0", start, "S1"); ("S1", finish, "S0") ]
    ()

let test_synth_cache_hit () =
  Synth_cache.clear ();
  let plant = tiny_plant () and spec = tiny_spec () in
  let sup1 =
    match Synth_cache.supcon ~plant ~spec with
    | Ok (sup, _) -> sup
    | Error _ -> Alcotest.fail "first synthesis failed"
  in
  let fresh =
    match Synthesis.supcon ~plant ~spec with
    | Ok (sup, _) -> sup
    | Error _ -> Alcotest.fail "fresh synthesis failed"
  in
  check_bool "cached structurally equal to fresh synthesis" true
    (Automaton.isomorphic sup1 fresh);
  (* Rebuilding structurally identical automata (different physical
     values) must hit, and a hit returns the very same automaton. *)
  let sup2 =
    match Synth_cache.supcon ~plant:(tiny_plant ()) ~spec:(tiny_spec ()) with
    | Ok (sup, _) -> sup
    | Error _ -> Alcotest.fail "second synthesis failed"
  in
  check_bool "hit shares the miss's automaton" true (sup1 == sup2);
  let hits, misses = Synth_cache.stats () in
  check_int "one miss" 1 misses;
  check_int "one hit" 1 hits;
  (* A structurally different key (spec marking moved) misses. *)
  let spec' = tiny_spec () in
  let spec'' =
    Automaton.create ~name:"Alt" ~initial:"S0" ~marked:[ "S1" ]
      ~transitions:
        (List.map
           (fun tr -> (tr.Automaton.src, tr.Automaton.event, tr.Automaton.dst))
           (Automaton.transitions spec'))
      ()
  in
  check_bool "digest distinguishes markings" true
    (Automaton.structural_digest spec' <> Automaton.structural_digest spec'');
  Synth_cache.clear ();
  check_bool "clear resets" true (Synth_cache.stats () = (0, 0))

(* ------------------------------------------------------------------ *)
(* Single-flight: the mechanism behind the synthesis cache             *)
(* ------------------------------------------------------------------ *)

(* The regression test for the old design, which held one global mutex
   across the synthesis itself and so serialized *distinct* keys: two
   slow computations for different keys on a 2-job pool must overlap.
   Each compute spins (bounded by a wall-clock deadline) until it has
   seen both computations active at once; under the old lock-across-
   compute scheme the peak concurrency would stay at 1 and this test
   would fail. *)
let test_single_flight_distinct_keys_overlap () =
  let t = Single_flight.create () in
  let active = Atomic.make 0 and peak = Atomic.make 0 in
  let compute key () =
    let mine = 1 + Atomic.fetch_and_add active 1 in
    let rec bump () =
      let p = Atomic.get peak in
      if mine > p && not (Atomic.compare_and_set peak p mine) then bump ()
    in
    bump ();
    let deadline = Unix.gettimeofday () +. 5.0 in
    while Atomic.get active < 2 && Unix.gettimeofday () < deadline do
      Domain.cpu_relax ()
    done;
    ignore (Atomic.fetch_and_add active (-1));
    key * 10
  in
  with_pool ~jobs:2 (fun pool ->
      let res =
        Pool.map pool
          (fun k -> Single_flight.find_or_compute t ~key:k ~compute:(compute k))
          [ 1; 2 ]
      in
      check_bool "results" true (res = [ 10; 20 ]));
  check_int "distinct keys computed concurrently" 2 (Atomic.get peak);
  check_bool "two misses, no hits" true (Single_flight.stats t = (0, 2))

let test_single_flight_same_key_once () =
  (* Racers on one key share a single computation: whichever outcome of
     the race (waiter-on-in-flight or late arrival finding Done), the
     value is computed once, both callers get the same physical result,
     and the stats read one miss plus one hit. *)
  let t = Single_flight.create () in
  let runs = Atomic.make 0 in
  let compute () =
    ignore (Atomic.fetch_and_add runs 1);
    ref 42
  in
  let res =
    with_pool ~jobs:2 (fun pool ->
        Pool.map pool
          (fun _ -> Single_flight.find_or_compute t ~key:"k" ~compute)
          [ 0; 1 ])
  in
  (match res with
  | [ a; b ] -> check_bool "same physical value" true (a == b)
  | _ -> Alcotest.fail "expected two results");
  check_int "computed exactly once" 1 (Atomic.get runs);
  check_bool "one miss, one hit" true (Single_flight.stats t = (1, 1))

let test_single_flight_exception_uninstalls () =
  let t = Single_flight.create () in
  Alcotest.check_raises "compute exception propagates" (Failure "sf") (fun () ->
      ignore
        (Single_flight.find_or_compute t ~key:1 ~compute:(fun () ->
             failwith "sf")));
  check_int "failed key recomputes" 7
    (Single_flight.find_or_compute t ~key:1 ~compute:(fun () -> 7));
  Single_flight.clear t;
  check_bool "clear zeroes stats" true (Single_flight.stats t = (0, 0))

(* An always-admissible second spec (free self-loops) so the synthesis
   for a second, structurally distinct cache key succeeds. *)
let loose_spec () =
  let start = Event.controllable "start" in
  let finish = Event.uncontrollable "finish" in
  Automaton.create ~name:"Free" ~initial:"T0" ~marked:[ "T0" ]
    ~transitions:[ ("T0", start, "T0"); ("T0", finish, "T0") ]
    ()

let test_synth_cache_parallel_distinct () =
  (* Distinct keys synthesized concurrently on a 2-job pool: correct
     results, two misses, no hits — the cache no longer funnels distinct
     synthesis problems through one lock. *)
  Synth_cache.clear ();
  let plant = tiny_plant () in
  with_pool ~jobs:2 (fun pool ->
      let results =
        Pool.map pool
          (fun spec -> Synth_cache.supcon ~plant ~spec)
          [ tiny_spec (); loose_spec () ]
      in
      List.iteri
        (fun i -> function
          | Ok _ -> ()
          | Error _ -> Alcotest.fail (Printf.sprintf "synthesis %d failed" i))
        results);
  check_bool "two misses, no hits" true (Synth_cache.stats () = (0, 2));
  Synth_cache.clear ()

(* ------------------------------------------------------------------ *)
(* End-to-end determinism: 4-job grid == 1-job grid                    *)
(* ------------------------------------------------------------------ *)

let short_config () =
  (* The paper scenario with each phase cut to 1 s — long enough to
     exercise every phase transition, short enough for a test. *)
  let cfg = Scenario.default_config Benchmarks.x264 in
  {
    cfg with
    Scenario.phases =
      List.map
        (fun ph -> { ph with Scenario.duration_s = 1.0 })
        cfg.Scenario.phases;
  }

(* Built through the catalogue.  A second SPECTR cell makes two workers
   race on the same synthesis cache key in the 4-job run. *)
let grid_specs () : (string * (unit -> Spectr.Manager.t)) list =
  List.map
    (fun v ->
      ( Spectr.Variant.name v,
        fun () ->
          let m, _, _, _ = Spectr.Variant.make Platform_desc.exynos5422 v in
          m ))
    Spectr.Variant.[ Spectr; Mm_pow; Spectr; Fs ]

let run_grid pool =
  let config = short_config () in
  Parmap.map ~pool
    (fun (_, make) -> Trace.to_csv (Scenario.run ~manager:(make ()) config))
    (grid_specs ())

let test_grid_determinism () =
  let seq = with_pool ~jobs:1 run_grid in
  let par = with_pool ~jobs:4 run_grid in
  check_int "same cell count" (List.length seq) (List.length par);
  List.iteri
    (fun i (a, b) ->
      check_string
        (Printf.sprintf "cell %d (%s) byte-identical"
           i
           (fst (List.nth (grid_specs ()) i)))
        (Digest.to_hex (Digest.string a))
        (Digest.to_hex (Digest.string b)))
    (List.combine seq par)

let () =
  Alcotest.run "spectr_exec"
    [
      ( "pool",
        [
          Alcotest.test_case "SPECTR_JOBS parsing" `Quick test_parse_jobs;
          Alcotest.test_case "ordered map" `Quick test_pool_map_ordered;
          Alcotest.test_case "empty and tiny inputs" `Quick
            test_pool_map_empty_and_tiny;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
          Alcotest.test_case "invalid jobs" `Quick test_pool_invalid_jobs;
          Alcotest.test_case "re-entrant map rejected" `Quick
            test_pool_reentrant_map_rejected;
          Alcotest.test_case "task backtrace preserved" `Quick
            test_pool_backtrace_preserved;
          Alcotest.test_case "default pool from two domains" `Quick
            test_default_pool_two_domains;
          Alcotest.test_case "re-entrancy marker" `Quick test_reentrancy_marker;
          Alcotest.test_case "parmap combinators" `Quick
            test_parmap_combinators;
          Alcotest.test_case "event interning under contention" `Quick
            test_event_interning_under_contention;
        ] );
      ( "single-flight",
        [
          Alcotest.test_case "distinct keys overlap" `Quick
            test_single_flight_distinct_keys_overlap;
          Alcotest.test_case "same key computed once" `Quick
            test_single_flight_same_key_once;
          Alcotest.test_case "exception uninstalls marker" `Quick
            test_single_flight_exception_uninstalls;
          Alcotest.test_case "description memos shared across tasks" `Quick
            test_description_memos_shared;
        ] );
      ( "synth-cache",
        [
          Alcotest.test_case "hit semantics" `Quick test_synth_cache_hit;
          Alcotest.test_case "parallel distinct keys" `Quick
            test_synth_cache_parallel_distinct;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "4-job grid == 1-job grid" `Slow
            test_grid_determinism;
        ] );
    ]
