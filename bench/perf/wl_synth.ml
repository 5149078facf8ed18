(* Workload [synth]: design-time supervisor synthesis, the work that the
   other three workloads do only during set-up.

   A round runs, in order:
   - [wide]: sharded modular synthesis ([supcon_modular ~jobs:2]) of k
     chained cluster plants under a shared budget spec — the family of
     the synthesis-scale bench, sized to fit the run — then
     [Verify.is_nonblocking];
   - [mono]: the same family composed up front ([Compose.all]) and
     synthesized by the sequential [supcon], then both [Verify] checks —
     the path a single-engine refactor replaces;
   - [platforms]: [Supervisor.synthesize] over generated k-cluster
     descriptions, pixel8pro, exynos5422 and one [Remove_cluster]
     degradation of each, [reps] times, with [Synth_cache.clear] before
     every call so each one synthesizes.
   The seed shuffles the order of the platform calls.  Product and
   supervisor state counts are pinned, and every result's structural
   digest must repeat round after round. *)

open Spectr_automata
open Spectr_platform
module S = Spectr

(* The synthesis-scale family: cluster i is Idle -start-> Busy -done!->
   Idle with an uncontrollable Busy -overheat!-> Hot -cool-> Idle
   detour; the budget spec allows at most [cap] active clusters and
   forbids an overheat at saturation. *)
let cluster i =
  let c name = Event.controllable (Printf.sprintf "%s%d" name i)
  and u name = Event.uncontrollable (Printf.sprintf "%s%d" name i) in
  Automaton.create ~marked:[ "Idle" ] ~name:(Printf.sprintf "Cluster%d" i)
    ~initial:"Idle"
    ~transitions:
      [
        ("Idle", c "start", "Busy");
        ("Busy", u "done", "Idle");
        ("Busy", u "overheat", "Hot");
        ("Hot", c "cool", "Idle");
      ]
    ()

let budget_spec ~k ~cap =
  let state j = Printf.sprintf "B%d" j in
  let transitions = ref [] in
  let add t = transitions := t :: !transitions in
  for i = 1 to k do
    let start = Event.controllable (Printf.sprintf "start%d" i)
    and finish = Event.uncontrollable (Printf.sprintf "done%d" i)
    and overheat = Event.uncontrollable (Printf.sprintf "overheat%d" i)
    and cool = Event.controllable (Printf.sprintf "cool%d" i) in
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
    ~name:(Printf.sprintf "Budget%d" cap) ~initial:(state 0)
    ~transitions:!transitions ()

type family = { k : int; cap : int; product : int; supervisor : int }

(* Sizes with their pinned (product, supervisor) state counts.  Under
   --smoke both rows are the k = 6 family, where modular and monolithic
   synthesis must agree. *)
let wide ~smoke =
  if smoke then { k = 6; cap = 5; product = 845; supervisor = 473 }
  else { k = 11; cap = 6; product = 79839; supervisor = 21627 }

let mono ~smoke =
  if smoke then { k = 6; cap = 5; product = 845; supervisor = 473 }
  else { k = 9; cap = 8; product = 21457; supervisor = 16867 }

let platforms ~smoke =
  let base =
    (if smoke then [ Platform_desc.k_cluster 2 ]
     else List.map Platform_desc.k_cluster Catalog.synth_sizes)
    @ [ Platform_desc.pixel8pro; Platform_desc.exynos5422 ]
  in
  base
  @ List.map
      (fun p ->
        let victim = if Platform_desc.host p = 0 then 1 else 0 in
        Platform_desc.degrade p (Platform_desc.Remove_cluster victim))
      base

let reps ~smoke = if smoke then 1 else 5

(* Deterministic Fisher-Yates shuffle driven by the run seed. *)
let shuffle ~seed l =
  let a = Array.of_list l in
  let g = Spectr_linalg.Prng.create (Wl.mix_seed seed 0) in
  for i = Array.length a - 1 downto 1 do
    let j = Spectr_linalg.Prng.int g (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let synth_name p = "supervisor.synthesize." ^ Platform_desc.name p

type inputs = {
  wide_f : family;
  mono_f : family;
  wide_plants : Automaton.t list;
  wide_spec : Automaton.t;
  mono_plants : Automaton.t list;
  mono_spec : Automaton.t;
  calls : (Platform_desc.t * Tracer.handle) list;
      (** Shuffled, repeated platform list, each with its span handle. *)
}

let build ~smoke ~seed =
  let wide_f = wide ~smoke and mono_f = mono ~smoke in
  let plats = platforms ~smoke in
  List.iter
    (fun p ->
      ignore (S.Spec.of_platform p : Automaton.t);
      ignore (S.Plant_model.composed_for p : Automaton.t))
    plats;
  {
    wide_f;
    mono_f;
    wide_plants = List.init wide_f.k (fun i -> cluster (i + 1));
    wide_spec = budget_spec ~k:wide_f.k ~cap:wide_f.cap;
    mono_plants = List.init mono_f.k (fun i -> cluster (i + 1));
    mono_spec = budget_spec ~k:mono_f.k ~cap:mono_f.cap;
    calls =
      shuffle ~seed (List.concat (List.init (reps ~smoke) (fun _ -> plats)))
      |> List.map (fun p -> (p, Tracer.handle (synth_name p)));
  }

(* --- one round ---------------------------------------------------------- *)

let h_wide1 = Tracer.handle "synthesis.supcon_modular.wide.jobs1"
let h_wide2 = Tracer.handle "synthesis.supcon_modular.wide.jobs2"
let h_wide_nb = Tracer.handle "verify.nonblocking.wide"
let h_compose = Tracer.handle "compose.all.mono"
let h_supcon = Tracer.handle "synthesis.supcon.mono"
let h_mono_ctrl = Tracer.handle "verify.controllable.mono"
let h_mono_nb = Tracer.handle "verify.nonblocking.mono"
let h_spec = Tracer.handle "spec.of_platform"
let h_plant = Tracer.handle "plant_model.of_platform"
let h_design = Tracer.handle "design_flow.design_gains_for.cold"
let h_digest = Tracer.handle "automaton.structural_digest"
let digest a = Tracer.span h_digest (fun () -> Automaton.structural_digest a)

type outcome = {
  product_states : int;
  checks_failed : int;
  digests : string list;
}

let check_family f = function
  | Ok (sup, stats) ->
      let ok =
        stats.Synthesis.product_states = f.product
        && Automaton.num_states sup = f.supervisor
      in
      (sup, stats, ok)
  | Error Synthesis.Empty_supervisor -> failwith "synth: empty supervisor"

let round_of inp =
  let failed = ref 0 and states = ref 0 and digests = ref [] in
  let note ok = if not ok then incr failed in
  let wide_sup, wide_stats, ok =
    check_family inp.wide_f
      (Tracer.span h_wide2 (fun () ->
           Synthesis.supcon_modular ~jobs:2 ~plants:inp.wide_plants
             ~spec:inp.wide_spec ()))
  in
  note ok;
  note (Tracer.span h_wide_nb (fun () -> Verify.is_nonblocking wide_sup));
  states := !states + wide_stats.Synthesis.product_states;
  digests := digest wide_sup :: !digests;
  let plant = Tracer.span h_compose (fun () -> Compose.all inp.mono_plants) in
  let mono_sup, mono_stats, ok =
    check_family inp.mono_f
      (Tracer.span h_supcon (fun () -> Synthesis.supcon ~plant ~spec:inp.mono_spec))
  in
  note ok;
  note
    (Tracer.span h_mono_ctrl (fun () ->
         Verify.is_controllable ~plant ~supervisor:mono_sup));
  note (Tracer.span h_mono_nb (fun () -> Verify.is_nonblocking mono_sup));
  states := !states + mono_stats.Synthesis.product_states;
  digests := digest mono_sup :: !digests;
  List.iter
    (fun (p, h) ->
      Spectr_exec.Synth_cache.clear ();
      let sup, stats =
        Tracer.span h (fun () -> S.Supervisor.synthesize ~platform:p ())
      in
      states := !states + stats.Synthesis.product_states;
      digests := digest sup :: !digests)
    inp.calls;
  { product_states = !states; checks_failed = !failed; digests = List.rev !digests }

let attempted inp = 2 + List.length inp.calls

(* --- traced extras ------------------------------------------------------- *)

(* Generation cost of the spec and plant automata for descriptions no
   memo has seen: generated 6-cluster platforms with core counts unused
   elsewhere. *)
let cold_generation () =
  List.iter
    (fun cores ->
      let p = Platform_desc.k_cluster ~cores_per_cluster:cores 6 in
      ignore (Tracer.span h_spec (fun () -> S.Spec.of_platform p) : Automaton.t);
      ignore
        (Tracer.span h_plant (fun () -> S.Plant_model.of_platform p)
          : Automaton.t * Automaton.t))
    [ 5; 6; 7; 8; 9; 10; 11; 12 ]

(* One identification-plus-LQG design nobody asked for before: the
   exynos big cluster under a seed no manager uses. *)
let cold_design () =
  let goals =
    [
      { S.Design_flow.label = "qos"; q_y = S.Mm.qos_weights };
      { S.Design_flow.label = "power"; q_y = S.Mm.power_weights };
    ]
  in
  match
    Tracer.span h_design (fun () ->
        S.Design_flow.design_gains_for ~seed:23L
          (S.Design_flow.cluster_subsystem Platform_desc.exynos5422 0)
          goals)
  with
  | Ok _ -> ()
  | Error msg -> failwith ("synth: cold design failed: " ^ msg)

let make ~smoke ~seed =
  let inputs = lazy (build ~smoke ~seed) in
  (* A fresh process's cold cost before its first timed round: building
     the automata, then one cold round, which grows the heap and fills
     every memo table that survives [Synth_cache.clear].  Building the
     automata alone takes about 15 ms, too short to time steadily. *)
  let set_up () = ignore (round_of (Lazy.force inputs) : outcome) in
  let prepare () =
    let inp = Lazy.force inputs in
    let reference = round_of inp in
    let checks =
      if smoke then
        (* The k = 6 family is small enough to synthesize monolithically:
           modular and monolithic must agree up to state naming. *)
        let mono =
          Synthesis.supcon ~plant:(Compose.all inp.mono_plants) ~spec:inp.mono_spec
        in
        let agree jobs =
          match
            (mono, Synthesis.supcon_modular ~jobs ~plants:inp.wide_plants
                     ~spec:inp.wide_spec ())
          with
          | Ok (a, sa), Ok (b, sb) -> Automaton.isomorphic a b && sa = sb
          | _ -> false
        in
        [ ("synth: modular = monolithic at k = 6, jobs 1 and 2", agree 1 && agree 2) ]
      else []
    in
    let round () =
      let o, seconds = Timer.timed (fun () -> round_of inp) in
      {
        Wl.units = float_of_int o.product_states;
        seconds;
        attempted = attempted inp;
        failed =
          o.checks_failed
          + List.fold_left2
              (fun n a b -> if a = b then n else n + 1)
              0 o.digests reference.digests;
        outputs = String.concat "," o.digests;
      }
    in
    (round, checks)
  in
  let traced () =
    let inp = Lazy.force inputs in
    let (plain, o, timing), (wide_bytes, aggs) =
      Wl.with_tracing (fun () ->
          let pass () = Timer.timed (fun () -> round_of inp) in
          let passes = Wl.time_passes ~plain:pass ~traced:pass in
          let b0 = Gc.allocated_bytes () in
          ignore
            (Tracer.span h_wide1 (fun () ->
                 Synthesis.supcon_modular ~jobs:1 ~plants:inp.wide_plants
                   ~spec:inp.wide_spec ()));
          let wide_bytes = Gc.allocated_bytes () -. b0 in
          cold_generation ();
          cold_design ();
          (passes, (wide_bytes, Tracer.snapshot ())))
    in
    let mean name scale = Wl.mean_of aggs name scale in
    let jobs1 = mean "synthesis.supcon_modular.wide.jobs1" 1.
    and jobs2 = mean "synthesis.supcon_modular.wide.jobs2" 1. in
    let by_k k = mean (synth_name (Platform_desc.k_cluster k)) 1e3 in
    {
      Wl.metrics =
        [
          ("synthesis.supcon_modular.s.wide.jobs1", jobs1);
          ("synthesis.supcon_modular.s.wide.jobs2", jobs2);
          ("synth.par_speedup.wide", jobs1 /. jobs2);
          (* All heap allocation of the single-job run (the two-job run
             allocates on worker domains too). *)
          ("synthesis.bytes.wide", wide_bytes);
          ("verify.nonblocking.s.wide", mean "verify.nonblocking.wide" 1.);
          ("compose.all.s.mono", mean "compose.all.mono" 1.);
          ("synthesis.supcon.s.mono", mean "synthesis.supcon.mono" 1.);
          ("verify.controllable.s.mono", mean "verify.controllable.mono" 1.);
          ("spec.of_platform.us", mean "spec.of_platform" 1e6);
          ("plant_model.of_platform.us", mean "plant_model.of_platform" 1e6);
        ]
        @ List.map
            (fun k -> (Printf.sprintf "supervisor.synthesize.ms.k%d" k, by_k k))
            Catalog.synth_sizes
        @ [
            ( "design_flow.design_gains_for.ms.cold",
              mean "design_flow.design_gains_for.cold" 1e3 );
          ];
      throughput = float_of_int plain.product_states /. timing.Wl.untraced_s;
      timing;
      t_attempted = attempted inp;
      t_failed = o.checks_failed;
      same_outputs = o.digests = plain.digests;
      report = [];
    }
  in
  { Wl.name = "synth"; rounds = 14; set_up; prepare; traced }
