(* Synthesis scalability: chain-compose k three-state cluster sub-plants,
   restrict by a shared power-budget specification, supcon-synthesize and
   verify — the full §4.3 design flow at growing scale (the many-cluster
   regime the §2 scalability argument is about).

   The plant family: cluster i is Idle -start_i-> Busy -done_i!-> Idle,
   with an uncontrollable Busy -overheat_i!-> Hot -cool_i-> Idle detour.
   All events are private to their cluster, so the composed plant has
   3^k states — the product grid reaches ~10^5 states at k = 10.

   The budget spec counts active (non-Idle) clusters and says: at most
   [cap] active at once, and an overheat while saturated is forbidden
   (uncontrollable escape into a ✗ state).  Synthesis therefore has real
   work to do: it must pre-emptively disable start events one step before
   saturation, exercising the forbidden, uncontrollable and blocking
   passes rather than just copying the product through.

   Wall-clock timings go to a table on stdout.  The deterministic pins
   of this family (state counts, digests against the test oracle,
   modular = monolithic) are tier-1 tests in test/test_automata.ml. *)

open Spectr_automata

let cluster i =
  let start = Event.controllable (Printf.sprintf "start%d" i) in
  let finish = Event.uncontrollable (Printf.sprintf "done%d" i) in
  let overheat = Event.uncontrollable (Printf.sprintf "overheat%d" i) in
  let cool = Event.controllable (Printf.sprintf "cool%d" i) in
  Automaton.create ~marked:[ "Idle" ]
    ~name:(Printf.sprintf "Cluster%d" i)
    ~initial:"Idle"
    ~transitions:
      [
        ("Idle", start, "Busy");
        ("Busy", finish, "Idle");
        ("Busy", overheat, "Hot");
        ("Hot", cool, "Idle");
      ]
    ()

(* Count of active clusters, capped.  start increments; done/cool
   decrement; overheat keeps the count (Busy -> Hot stays active) except
   at saturation, where it escapes uncontrollably into the forbidden
   state: the supervisor must never let the system saturate with a Busy
   cluster, i.e. it has to stop issuing start one step early. *)
let budget_spec ~k ~cap =
  let state j = Printf.sprintf "B%d" j in
  let transitions = ref [] in
  let add t = transitions := t :: !transitions in
  for i = 1 to k do
    let start = Event.controllable (Printf.sprintf "start%d" i) in
    let finish = Event.uncontrollable (Printf.sprintf "done%d" i) in
    let overheat = Event.uncontrollable (Printf.sprintf "overheat%d" i) in
    let cool = Event.controllable (Printf.sprintf "cool%d" i) in
    for j = 0 to cap - 1 do
      add (state j, start, state (j + 1));
      add (state j, overheat, state j)
    done;
    for j = 1 to cap do
      add (state j, finish, state (j - 1));
      add (state j, cool, state (j - 1))
    done;
    add (state cap, overheat, "Over")
  done;
  Automaton.create ~marked:[ state 0 ] ~forbidden:[ "Over" ]
    ~name:(Printf.sprintf "Budget%d" cap)
    ~initial:(state 0) ~transitions:!transitions ()

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let run () =
  Util.heading
    "Synthesis scale: k chained cluster plants vs. a shared budget spec";
  Printf.printf "\n  %3s %4s %9s %9s %9s %9s %9s %9s\n" "k" "cap" "plant-Q"
    "product-Q" "sup-Q" "compose-s" "supcon-s" "verify-s";
  List.iter
    (fun (k, cap) ->
      let plants = List.init k (fun i -> cluster (i + 1)) in
      let spec = budget_spec ~k ~cap in
      let plant, t_compose = timed (fun () -> Compose.all plants) in
      let result, t_supcon =
        timed (fun () -> Synthesis.supcon ~plant ~spec)
      in
      match result with
      | Error Synthesis.Empty_supervisor ->
          failwith "synthesis-scale: unexpectedly empty supervisor"
      | Ok (sup, stats) ->
          let checks, t_verify =
            timed (fun () ->
                ( Verify.is_nonblocking sup,
                  Verify.is_controllable ~plant ~supervisor:sup ))
          in
          let nonblocking, controllable = checks in
          if not (nonblocking && controllable) then
            failwith "synthesis-scale: verification failed";
          (* Synthesis must have pruned: saturating with a Busy cluster is
             uncontrollably fatal, so the supervisor is strictly smaller
             than the product. *)
          if Automaton.num_states sup >= stats.Synthesis.product_states then
            failwith "synthesis-scale: expected nontrivial pruning";
          Printf.printf "  %3d %4d %9d %9d %9d %9.3f %9.3f %9.3f\n" k cap
            (Automaton.num_states plant)
            stats.Synthesis.product_states (Automaton.num_states sup)
            t_compose t_supcon t_verify)
    [ (4, 3); (6, 5); (8, 7); (10, 9) ];
  (* Modular synthesis: the plant components and the spec composed
     jointly, on the fly — the regime where the composed plant (3^k
     states) can no longer be materialized.  alloc-MB is every byte the
     call allocates (Gc.allocated_bytes, minor heap emptied first): a
     deterministic measure of its working set, unlike wall time. *)
  Util.subheading
    "modular synthesis: plant components never composed up front";
  Printf.printf "  %3s %4s %9s %9s %9s %9s\n" "k" "cap" "product-Q" "sup-Q"
    "supcon-s" "alloc-MB";
  List.iter
    (fun (k, cap) ->
      let plants = List.init k (fun i -> cluster (i + 1)) in
      let spec = budget_spec ~k ~cap in
      Gc.minor ();
      let b0 = Gc.allocated_bytes () in
      match timed (fun () -> Synthesis.supcon_modular ~plants ~spec ()) with
      | Ok (sup, stats), t ->
          let mb = (Gc.allocated_bytes () -. b0) /. 1e6 in
          if not (Verify.is_nonblocking sup) then
            failwith "synthesis-scale: modular supervisor blocks";
          Printf.printf "  %3d %4d %9d %9d %9.3f %9.1f\n" k cap
            stats.Synthesis.product_states (Automaton.num_states sup) t mb
      | Error _, _ -> failwith "synthesis-scale: modular unexpectedly empty")
    [ (12, 9); (14, 7); (16, 6) ];
  (* The process-wide synthesis cache: a second synthesis of the smallest
     grid cell must be a hit (same structural digests), costing only the
     digest.  Deltas, not totals — other experiments in the same
     invocation share the cache. *)
  let plant = Compose.all (List.init 4 (fun i -> cluster (i + 1))) in
  let spec = budget_spec ~k:4 ~cap:3 in
  let hits0, misses0 = Spectr_exec.Synth_cache.stats () in
  (match Spectr_exec.Synth_cache.supcon ~plant ~spec with
  | Ok _ -> ()
  | Error _ -> failwith "synthesis-scale: cache path returned empty");
  (match Spectr_exec.Synth_cache.supcon ~plant ~spec with
  | Ok _ -> ()
  | Error _ -> failwith "synthesis-scale: cache path returned empty");
  let hits1, misses1 = Spectr_exec.Synth_cache.stats () in
  Printf.printf
    "  synth-cache: +%d miss, +%d hit on re-synthesis of the k=4 cell\n"
    (misses1 - misses0) (hits1 - hits0);
  (* The description-driven supervisor at growing cluster counts: the
     real SPECTR plant/spec generated from synthetic k-cluster platform
     descriptions, synthesized and verified end to end. *)
  Util.subheading
    "description-driven supervisors on generated k-cluster platforms";
  Printf.printf "  %8s %9s %9s %9s %9s\n" "clusters" "product-Q" "sup-Q"
    "events" "total-s";
  List.iter
    (fun n ->
      let platform = Spectr_platform.Platform_desc.k_cluster n in
      let (sup, stats), t =
        timed (fun () -> Spectr.Supervisor.synthesize ~platform ())
      in
      let plant = Spectr.Plant_model.composed_for platform in
      if
        not
          (Verify.is_nonblocking sup
          && Verify.is_controllable ~plant ~supervisor:sup)
      then failwith "synthesis-scale: platform supervisor failed verify";
      Printf.printf "  %8d %9d %9d %9d %9.3f\n" n
        stats.Synthesis.product_states (Automaton.num_states sup)
        (Event.Set.cardinal (Automaton.alphabet sup))
        t)
    [ 2; 3; 4; 6; 8; 12; 16 ]
