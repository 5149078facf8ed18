(* Tests for the supervisory-control substrate: Event, Automaton, Compose,
   Reach, Verify, Synthesis, Dot.

   The running example is the classic "small factory": two machines and a
   one-slot buffer.  Machine i: Idle -start_i-> Working -finish_i!-> Idle,
   with breakdowns.  The buffer specification forces machine 2 to only
   start when the buffer is full, and machine 1 to only deposit when it is
   empty.  This exercises exactly the plant/spec/supcon pipeline SPECTR
   uses for the Exynos case study. *)

open Spectr_automata

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let test_event_basics () =
  let e = Event.controllable "start" in
  let u = Event.uncontrollable "break" in
  check_string "name" "start" (Event.name e);
  check_bool "controllable" true (Event.is_controllable e);
  check_bool "uncontrollable" false (Event.is_controllable u)

let test_event_order () =
  let a = Event.controllable "a" and b = Event.controllable "b" in
  check_bool "a < b" true (Event.compare a b < 0);
  check_bool "equal" true (Event.equal a (Event.controllable "a"))

let test_event_inconsistent_controllability () =
  (* The comparator used to raise from inside Set rebalancing when one
     name carried both polarities; the order is now total — the two
     events are simply distinct, uncontrollable first — and the conflict
     is reported by the alphabet-consistency checks instead (see the
     alphabet-conflict tests below). *)
  let a = Event.controllable "x" and b = Event.uncontrollable "x" in
  check_bool "distinct" false (Event.equal a b);
  check_bool "nonzero compare" true (Event.compare a b <> 0);
  check_bool "uncontrollable first" true (Event.compare b a < 0);
  check_bool "antisymmetric" true (Event.compare a b = -Event.compare b a);
  check_int "both coexist in a set" 2
    (Event.Set.cardinal (Event.set_of_list [ a; b ]))

let test_event_interning () =
  let a = Event.controllable "same" in
  check_bool "physically interned" true (a == Event.controllable "same");
  check_int "id stable" (Event.id a) (Event.id (Event.controllable "same"));
  check_bool "polarities get distinct ids" true
    (Event.id a <> Event.id (Event.uncontrollable "same"));
  let m =
    Automaton.create ~name:"m" ~initial:"s"
      ~transitions:[ ("s", a, "s") ] ()
  in
  check_bool "an automaton decodes its ids" true
    (Event.equal a (Automaton.event_of_id m (Event.id a)))

let test_event_pp () =
  check_string "controllable" "go"
    (Format.asprintf "%a" Event.pp (Event.controllable "go"));
  check_string "uncontrollable" "boom!"
    (Format.asprintf "%a" Event.pp (Event.uncontrollable "boom"))

(* ------------------------------------------------------------------ *)
(* Machine fixtures                                                    *)
(* ------------------------------------------------------------------ *)

let start1 = Event.controllable "start1"
let finish1 = Event.uncontrollable "finish1"
let start2 = Event.controllable "start2"
let finish2 = Event.uncontrollable "finish2"

let machine ~start ~finish n =
  Automaton.create ~marked:[ "Idle" ]
    ~name:(Printf.sprintf "M%d" n)
    ~initial:"Idle"
    ~transitions:[ ("Idle", start, "Working"); ("Working", finish, "Idle") ]
    ()

let m1 = machine ~start:start1 ~finish:finish1 1
let m2 = machine ~start:start2 ~finish:finish2 2

(* Buffer spec: finish1 fills the slot; start2 drains it.  Overflow
   (finish1 when full) and underflow (start2 when empty) are forbidden by
   omission. *)
let buffer_spec =
  Automaton.create ~marked:[ "Empty" ] ~name:"Buffer" ~initial:"Empty"
    ~transitions:[ ("Empty", finish1, "Full"); ("Full", start2, "Empty") ]
    ()

(* ------------------------------------------------------------------ *)
(* Automaton basics                                                    *)
(* ------------------------------------------------------------------ *)

let test_automaton_counts () =
  check_int "states" 2 (Automaton.num_states m1);
  check_int "transitions" 2 (Automaton.num_transitions m1);
  check_string "initial" "Idle" (Automaton.initial m1)

let test_automaton_step () =
  (match Automaton.step m1 "Idle" start1 with
  | Some s -> check_string "step" "Working" s
  | None -> Alcotest.fail "expected transition");
  check_bool "undefined" true (Automaton.step m1 "Idle" finish1 = None)

let test_automaton_unknown_state () =
  Alcotest.check_raises "unknown"
    (Invalid_argument "Automaton M1: unknown state \"Nope\"") (fun () ->
      ignore (Automaton.step m1 "Nope" start1))

let test_automaton_enabled () =
  let evs = Automaton.enabled m1 "Idle" in
  check_int "one enabled" 1 (List.length evs);
  check_string "start1" "start1" (Event.name (List.hd evs))

let test_automaton_nondeterminism_rejected () =
  Alcotest.check_raises "nondet"
    (Invalid_argument "Automaton bad: nondeterministic on \"e\" from state \"A\"")
    (fun () ->
      ignore
        (Automaton.create ~name:"bad" ~initial:"A"
           ~transitions:
             [
               ("A", Event.controllable "e", "B");
               ("A", Event.controllable "e", "C");
             ]
           ()))

let test_automaton_conflicting_controllability () =
  Alcotest.check_raises "create conflict"
    (Invalid_argument
       "Automaton bad: event \"x\" is used both controllably and \
        uncontrollably")
    (fun () ->
      ignore
        (Automaton.create ~name:"bad" ~initial:"A"
           ~transitions:
             [
               ("A", Event.controllable "x", "B");
               ("B", Event.uncontrollable "x", "A");
             ]
           ()))

let test_automaton_duplicate_transition_ok () =
  let a =
    Automaton.create ~name:"dup" ~initial:"A"
      ~transitions:
        [
          ("A", Event.controllable "e", "B");
          ("A", Event.controllable "e", "B");
        ]
      ()
  in
  check_int "deduplicated" 1 (Automaton.num_transitions a)

let test_automaton_marked_default () =
  let a =
    Automaton.create ~name:"all-marked" ~initial:"A"
      ~transitions:[ ("A", Event.controllable "e", "B") ]
      ()
  in
  check_int "all marked" 2 (List.length (Automaton.marked a))

let test_automaton_marked_explicit_empty () =
  let a =
    Automaton.create ~marked:[] ~name:"none-marked" ~initial:"A"
      ~transitions:[ ("A", Event.controllable "e", "B") ]
      ()
  in
  check_int "none marked" 0 (List.length (Automaton.marked a))

let test_automaton_unknown_marked () =
  Alcotest.check_raises "unknown marked"
    (Invalid_argument "Automaton m: marked state \"Z\" unknown") (fun () ->
      ignore
        (Automaton.create ~marked:[ "Z" ] ~name:"m" ~initial:"A"
           ~transitions:[] ()))

let test_automaton_accepts () =
  check_bool "empty word at marked initial" true (Automaton.accepts m1 []);
  check_bool "start1 alone not marked" false (Automaton.accepts m1 [ start1 ]);
  check_bool "start1 finish1" true (Automaton.accepts m1 [ start1; finish1 ]);
  check_bool "undefined word" false (Automaton.accepts m1 [ finish1 ])

let test_automaton_trace () =
  (match Automaton.trace m1 [ start1 ] with
  | Some s -> check_string "trace" "Working" s
  | None -> Alcotest.fail "trace should be defined");
  check_bool "bad trace" true (Automaton.trace m1 [ finish1 ] = None)

let test_automaton_forbidden () =
  let a =
    Automaton.create ~forbidden:[ "Bad" ] ~name:"f" ~initial:"A"
      ~transitions:[ ("A", Event.uncontrollable "oops", "Bad") ]
      ()
  in
  check_bool "is_forbidden" true (Automaton.is_forbidden a "Bad");
  check_bool "initial ok" false (Automaton.is_forbidden a "A");
  check_int "forbidden list" 1 (List.length (Automaton.forbidden a))

let test_isomorphic_negative () =
  check_bool "different automata" false (Automaton.isomorphic m1 m2)

(* The sub-automaton induced by the states a name predicate keeps. *)
let restrict_by_name a keep =
  Automaton.restrict_indices a (Array.of_list (List.map keep (Automaton.states a)))

let test_restrict_states () =
  match restrict_by_name m1 (fun s -> s = "Idle") with
  | None -> Alcotest.fail "initial kept"
  | Some a ->
      check_int "one state" 1 (Automaton.num_states a);
      check_int "no transitions" 0 (Automaton.num_transitions a)

let test_restrict_drop_initial () =
  check_bool "dropping initial gives None" true
    (restrict_by_name m1 (fun s -> s <> "Idle") = None)

(* ------------------------------------------------------------------ *)
(* Composition                                                         *)
(* ------------------------------------------------------------------ *)

let test_compose_interleaving () =
  (* Disjoint alphabets: full interleaving, 2*2 = 4 states. *)
  let c = Compose.pair m1 m2 in
  check_int "4 states" 4 (Automaton.num_states c);
  check_string "initial" "Idle.Idle" (Automaton.initial c);
  (* each state has both private events enabled except when working *)
  check_int "8 transitions" 8 (Automaton.num_transitions c)

let test_compose_synchronization () =
  (* Shared event must synchronize: M1 || Buffer — finish1 shared. *)
  let c = Compose.pair m1 buffer_spec in
  (* states: Idle.Empty, Working.Empty, Idle.Full, Working.Full *)
  check_int "4 states" 4 (Automaton.num_states c);
  (* finish1 only allowed when buffer empty *)
  check_bool "finish1 blocked when full" true
    (Automaton.step c "Working.Full" finish1 = None)

let test_compose_marking () =
  let c = Compose.pair m1 m2 in
  check_bool "both idle marked" true (Automaton.is_marked c "Idle.Idle");
  check_bool "working not marked" false (Automaton.is_marked c "Working.Idle")

let test_compose_alphabet_union () =
  let c = Compose.pair m1 buffer_spec in
  check_int "alphabet 3" 3 (Event.Set.cardinal (Automaton.alphabet c))

let test_compose_all () =
  let c = Compose.all [ m1; m2; buffer_spec ] in
  check_bool "nonempty" true (Automaton.num_states c > 0);
  Alcotest.check_raises "empty list" (Invalid_argument "Compose.all: empty list")
    (fun () -> ignore (Compose.all []))

let test_compose_reachable_only () =
  (* Composition builds only the reachable product: a self-synchronizing
     pair where one component never moves keeps the other frozen too. *)
  let e = Event.controllable "tick" in
  let a =
    Automaton.create ~name:"A" ~initial:"0"
      ~transitions:[ ("0", e, "1"); ("1", e, "0") ] ()
  in
  let blocked = Automaton.create ~name:"B" ~initial:"Z" ~alphabet:[ e ] ~transitions:[] () in
  let c = Compose.pair a blocked in
  check_int "frozen product" 1 (Automaton.num_states c)

let test_compose_nested_naming () =
  (* Regression: product-state names used to be joined with a bare dot,
     so the pairs ("a.b","c") and ("a","b.c") both collapsed to the name
     "a.b.c" — a silent state merge in nested compositions whose
     components already carry dotted names (every composed plant does).
     The escaping join keeps the separator unambiguous. *)
  let e1 = Event.controllable "e1" and e2 = Event.controllable "e2" in
  let a =
    Automaton.create ~name:"A" ~initial:"p0"
      ~transitions:[ ("p0", e1, "a.b"); ("p0", e2, "a") ]
      ()
  in
  let b =
    Automaton.create ~name:"B" ~initial:"q0"
      ~transitions:[ ("q0", e1, "c"); ("q0", e2, "b.c") ]
      ()
  in
  let c = Compose.pair a b in
  (* p0.q0, a\.b.c and a.b\.c: three distinct states (a bare-dot join
     merges the latter two). *)
  check_int "three distinct product states" 3 (Automaton.num_states c);
  check_bool "escaped left component" true (Automaton.mem_state c "a\\.b.c");
  check_bool "escaped right component" true (Automaton.mem_state c "a.b\\.c");
  (* Dot-free components keep their plain dotted join. *)
  check_string "plain join unchanged" "p0.q0" (Automaton.initial c);
  check_string "escaping join" "a\\.b.c" (Names_oracle.join [ "a.b"; "c" ])

(* ------------------------------------------------------------------ *)
(* Reachability                                                        *)
(* ------------------------------------------------------------------ *)

let unreachable_automaton =
  Automaton.create ~marked:[ "A"; "Orphan" ] ~name:"unreach" ~initial:"A"
    ~transitions:
      [
        ("A", Event.controllable "go", "B");
        ("Orphan", Event.controllable "go", "A");
        ("B", Event.controllable "back", "A");
        ("B", Event.uncontrollable "die", "Dead");
      ]
    ()

let test_accessible () =
  let a = Reach.accessible unreachable_automaton in
  check_bool "orphan removed" false (Automaton.mem_state a "Orphan");
  check_int "3 states" 3 (Automaton.num_states a)

let test_coaccessible () =
  let a = unreachable_automaton in
  let co = Reach.coaccessible_indices a in
  let flag s = co.(Automaton.index_of_state a s) in
  (* Dead cannot reach a marked state; Orphan is marked itself. *)
  check_bool "dead not coaccessible" false (flag "Dead");
  check_bool "orphan coaccessible" true (flag "Orphan");
  check_bool "initial coaccessible" true (flag "A");
  check_bool "B reaches A" true (flag "B")

let test_trim () =
  check_bool "unreachable and blocking states: not trim" false
    (Reach.is_trim unreachable_automaton);
  let a = unreachable_automaton in
  let acc = Reach.accessible_indices a and co = Reach.coaccessible_indices a in
  match
    Automaton.restrict_indices a
      (Array.init (Automaton.num_states a) (fun i -> acc.(i) && co.(i)))
  with
  | None -> Alcotest.fail "trim nonempty"
  | Some t ->
      check_bool "dead removed" false (Automaton.mem_state t "Dead");
      check_bool "orphan removed" false (Automaton.mem_state t "Orphan");
      check_bool "is_trim" true (Reach.is_trim t)

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)
(* ------------------------------------------------------------------ *)

let test_nonblocking_positive () =
  check_bool "machine nonblocking" true (Verify.is_nonblocking m1)

let test_nonblocking_negative () =
  let a =
    Automaton.create ~marked:[ "A" ] ~name:"blocky" ~initial:"A"
      ~transitions:[ ("A", Event.controllable "go", "Trap") ]
      ()
  in
  match Verify.nonblocking a with
  | Ok () -> Alcotest.fail "should block"
  | Error { state } -> check_string "witness" "Trap" state

let test_controllable_positive () =
  (* A supervisor that only restricts the controllable start events. *)
  let sup =
    Automaton.create ~name:"sup" ~initial:"S"
      ~transitions:
        [
          ("S", start1, "T");
          ("T", finish1, "S");
        ]
      ()
  in
  let plant = m1 in
  check_bool "controllable" true (Verify.is_controllable ~plant ~supervisor:sup)

let test_controllable_negative () =
  (* A supervisor that tries to disable an uncontrollable finish1.  The
     event must be in the supervisor's alphabet: an event outside the
     alphabet is implicitly always enabled. *)
  let sup =
    Automaton.create ~name:"sup" ~initial:"S" ~alphabet:[ finish1 ]
      ~transitions:[ ("S", start1, "T") ]
      ()
  in
  match Verify.controllable ~plant:m1 ~supervisor:sup with
  | Ok () -> Alcotest.fail "should be uncontrollable"
  | Error w ->
      check_string "event" "finish1" (Event.name w.event);
      check_string "plant state" "Working" w.plant_state

let test_closed_loop () =
  let sup =
    Automaton.create ~name:"sup" ~initial:"S"
      ~transitions:[ ("S", start1, "T"); ("T", finish1, "S") ]
      ()
  in
  let cl = Verify.closed_loop ~plant:m1 ~supervisor:sup in
  check_int "closed loop states" 2 (Automaton.num_states cl)

(* ------------------------------------------------------------------ *)
(* Synthesis                                                           *)
(* ------------------------------------------------------------------ *)

let test_supcon_small_factory () =
  let plant = Compose.pair m1 m2 in
  match Synthesis.supcon ~plant ~spec:buffer_spec with
  | Error _ -> Alcotest.fail "supervisor exists"
  | Ok (sup, stats) ->
      check_bool "nonblocking" true (Verify.is_nonblocking sup);
      check_bool "controllable" true
        (Verify.is_controllable ~plant ~supervisor:sup);
      check_bool "some product states" true (stats.Synthesis.product_states > 0);
      (* The supervisor must prevent buffer overflow: after start1;finish1
         (buffer full), start1 must be disabled until start2 drains. *)
      let after = Automaton.trace sup [ start1; finish1 ] in
      (match after with
      | None -> Alcotest.fail "word should survive"
      | Some s ->
          let enabled = Automaton.enabled sup s in
          check_bool "start1 disabled when buffer full" false
            (List.exists (fun e -> Event.name e = "start1") enabled);
          check_bool "start2 enabled" true
            (List.exists (fun e -> Event.name e = "start2") enabled))

let test_supcon_forbidden_state () =
  (* Plant: toggle between On and Overload via uncontrollable surge; a spec
     forbidding Overload is unenforceable, but a spec forbidding the
     controllable path is fine. *)
  let surge = Event.uncontrollable "surge" in
  let enable = Event.controllable "enable" in
  let plant =
    Automaton.create ~marked:[ "Off" ] ~name:"P" ~initial:"Off"
      ~transitions:[ ("Off", enable, "On"); ("On", surge, "Overload") ]
      ()
  in
  (* Spec with forbidden state reached by the uncontrollable surge: the
     supervisor must then never enable the machine at all. *)
  let spec =
    Automaton.create ~marked:[ "Off" ] ~forbidden:[ "Boom" ] ~name:"S"
      ~initial:"Off"
      ~transitions:[ ("Off", enable, "On"); ("On", surge, "Boom") ]
      ()
  in
  match Synthesis.supcon ~plant ~spec with
  | Error _ -> Alcotest.fail "empty: supervisor could just never enable"
  | Ok (sup, stats) ->
      check_bool "never enables" true
        (Automaton.trace sup [ enable ] = None);
      check_bool "removed forbidden" true (stats.Synthesis.removed_forbidden >= 1);
      check_bool "nonblocking" true (Verify.is_nonblocking sup)

let test_supcon_empty () =
  (* The initial state itself uncontrollably reaches the forbidden state:
     no supervisor exists. *)
  let surge = Event.uncontrollable "surge" in
  let plant =
    Automaton.create ~marked:[ "Off" ] ~name:"P" ~initial:"Off"
      ~transitions:[ ("Off", surge, "Dead") ]
      ()
  in
  let spec =
    Automaton.create ~marked:[ "Off" ] ~forbidden:[ "Dead" ] ~name:"S"
      ~initial:"Off"
      ~transitions:[ ("Off", surge, "Dead") ]
      ()
  in
  match Synthesis.supcon ~plant ~spec with
  | Error Synthesis.Empty_supervisor -> ()
  | Ok _ -> Alcotest.fail "expected empty supervisor"

let test_supcon_maximally_permissive_when_spec_loose () =
  (* A spec equal to the plant's own behaviour removes nothing. *)
  let spec = Automaton.rename m1 "spec" in
  match Synthesis.supcon ~plant:m1 ~spec with
  | Error _ -> Alcotest.fail "nonempty"
  | Ok (sup, _) ->
      check_bool "language preserved" true
        (Automaton.accepts sup [ start1; finish1 ]
        && Automaton.trace sup [ start1 ] <> None)

(* qcheck: synthesized supervisors are always controllable + nonblocking *)

let gen_plant_spec =
  let open QCheck2.Gen in
  let events =
    [|
      Event.controllable "c1";
      Event.controllable "c2";
      Event.uncontrollable "u1";
      Event.uncontrollable "u2";
    |]
  in
  let state i = Printf.sprintf "s%d" i in
  let gen_auto name n_states n_trans ~with_forbidden =
    let* trans =
      list_size (return n_trans)
        (let* s = int_range 0 (n_states - 1) in
         let* d = int_range 0 (n_states - 1) in
         let* e = int_range 0 (Array.length events - 1) in
         return (state s, events.(e), state d))
    in
    let* marked_idx = int_range 0 (n_states - 1) in
    let* forbidden_idx =
      if with_forbidden then map Option.some (int_range 1 (n_states - 1))
      else return None
    in
    (* Deduplicate nondeterministic transitions: keep first per (src,event) *)
    let seen = Hashtbl.create 16 in
    let trans =
      List.filter
        (fun (s, e, _) ->
          let k = (s, Event.name e) in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        trans
    in
    let states_mentioned =
      List.concat_map (fun (s, _, d) -> [ s; d ]) trans @ [ state 0 ]
    in
    let marked =
      if List.mem (state marked_idx) states_mentioned then [ state marked_idx ]
      else [ state 0 ]
    in
    let forbidden =
      match forbidden_idx with
      | Some i when List.mem (state i) states_mentioned && not (List.mem (state i) marked)
        -> [ state i ]
      | _ -> []
    in
    return
      (Automaton.create ~marked ~forbidden ~name ~initial:(state 0)
         ~transitions:trans ())
  in
  let* plant = gen_auto "G" 4 8 ~with_forbidden:false in
  let* spec = gen_auto "E" 3 6 ~with_forbidden:true in
  return (plant, spec)

let prop_supcon_sound =
  QCheck2.Test.make ~name:"supcon is controllable+nonblocking+trim" ~count:300
    gen_plant_spec (fun (plant, spec) ->
      match Synthesis.supcon ~plant ~spec with
      | Error Synthesis.Empty_supervisor -> true
      | Ok (sup, _) ->
          Verify.is_nonblocking sup
          && Verify.is_controllable ~plant ~supervisor:sup
          && Reach.is_trim sup
          &&
          (* never contains a forbidden state *)
          List.for_all
            (fun s -> not (Automaton.is_forbidden sup s))
            (Automaton.states sup))

let prop_compose_commutative_language =
  QCheck2.Test.make ~name:"A||B isomorphic to B||A up to naming" ~count:100
    gen_plant_spec (fun (a, b) ->
      (* [isomorphic] ignores state names, so the swapped "x.y" / "y.x"
         naming of the two products does not matter. *)
      Automaton.isomorphic (Compose.pair a b) (Compose.pair b a))

let prop_supcon_language_within_plant =
  (* Every word the supervisor accepts must be executable by the plant:
     supervision only restricts. *)
  QCheck2.Test.make ~name:"supcon language ⊆ plant language" ~count:150
    gen_plant_spec (fun (plant, spec) ->
      match Synthesis.supcon ~plant ~spec with
      | Error Synthesis.Empty_supervisor -> true
      | Ok (sup, _) ->
          (* enumerate all supervisor paths up to depth 4 *)
          let rec walk state plant_state depth =
            depth = 0
            || List.for_all
                 (fun e ->
                   match Automaton.step sup state e with
                   | None -> true
                   | Some next -> (
                       match Automaton.step plant plant_state e with
                       | None -> Event.Set.mem e (Automaton.alphabet plant) = false
                       | Some pnext -> walk next pnext (depth - 1)))
                 (Automaton.enabled sup state)
          in
          walk (Automaton.initial sup) (Automaton.initial plant) 4)

let prop_compose_associative =
  (* Left- and right-nested compositions agree up to the flat dot-joined
     state naming both produce. *)
  QCheck2.Test.make ~name:"(A||B)||C isomorphic to A||(B||C)" ~count:60
    QCheck2.Gen.(pair gen_plant_spec gen_plant_spec)
    (fun ((a, b), (c, _)) ->
      let left = Compose.pair (Compose.pair a b) c in
      let right = Compose.pair a (Compose.pair b c) in
      Automaton.isomorphic left right)

(* ------------------------------------------------------------------ *)
(* Index-native core vs string-native references                       *)
(* ------------------------------------------------------------------ *)

let test_alphabet_conflict_reported_at_entry () =
  (* Regression: with per-automaton consistency but a cross-automaton
     conflict, Event.compare used to raise from inside Set.union during
     composition — deep in a rebalance, with no context.  Compose.pair
     and Synthesis.supcon now check alphabet consistency on entry and
     name the event. *)
  let a =
    Automaton.create ~name:"A" ~initial:"P"
      ~transitions:[ ("P", Event.controllable "clash", "P") ]
      ()
  in
  let b =
    Automaton.create ~name:"B" ~initial:"Q"
      ~transitions:[ ("Q", Event.uncontrollable "clash", "Q") ]
      ()
  in
  Alcotest.check_raises "compose names the event"
    (Invalid_argument
       "Compose.pair(A,B): event \"clash\" is uncontrollable in one alphabet \
        but controllable in the other")
    (fun () -> ignore (Compose.pair a b));
  Alcotest.check_raises "supcon names the event"
    (Invalid_argument
       "Synthesis.supcon(A,B): event \"clash\" is uncontrollable in one \
        alphabet but controllable in the other")
    (fun () -> ignore (Synthesis.supcon ~plant:a ~spec:b))

(* Deterministic seeded automaton generator (simple LCG), for the
   equivalence tests pinning the index-native algorithms to string-native
   reference implementations: unlike the QCheck generators these
   enumerate a fixed seed range, so a failure reproduces from the seed
   number alone. *)
let random_automaton ~seed ~name =
  let rng = ref ((seed * 2654435761) land 0x3FFFFFFF) in
  let rand n =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng mod n
  in
  let events =
    [|
      Event.controllable "rn_c1";
      Event.controllable "rn_c2";
      Event.uncontrollable "rn_u1";
      Event.uncontrollable "rn_u2";
    |]
  in
  let n_states = 2 + rand 5 in
  let state i = Printf.sprintf "q%d" i in
  let n_trans = 1 + rand (3 * n_states) in
  let seen = Hashtbl.create 16 in
  let trans = ref [] in
  for _ = 1 to n_trans do
    let s = rand n_states and d = rand n_states in
    let e = events.(rand (Array.length events)) in
    if not (Hashtbl.mem seen (s, Event.id e)) then begin
      Hashtbl.add seen (s, Event.id e) ();
      trans := (state s, e, state d) :: !trans
    end
  done;
  let mentioned =
    List.sort_uniq String.compare
      (state 0 :: List.concat_map (fun (s, _, d) -> [ s; d ]) !trans)
  in
  let marked = List.filter (fun _ -> rand 2 = 0) mentioned in
  let forbidden = List.filter (fun s -> s <> state 0 && rand 4 = 0) mentioned in
  Automaton.create ~marked ~forbidden ~name ~initial:(state 0)
    ~transitions:!trans ()

(* String-native reference composition — the pre-refactor algorithm,
   expressed on the public name-based API only. *)
let ref_pair a b =
  let sigma_a = Automaton.alphabet a and sigma_b = Automaton.alphabet b in
  let alphabet = Event.Set.union sigma_a sigma_b in
  let name_of qa qb = Names_oracle.join [ qa; qb ] in
  let seen = Hashtbl.create 64 in
  let queue = Queue.create () in
  let transitions = ref [] and marked = ref [] and forbidden = ref [] in
  let visit (qa, qb) =
    if not (Hashtbl.mem seen (qa, qb)) then begin
      Hashtbl.add seen (qa, qb) ();
      Queue.push (qa, qb) queue;
      if Automaton.is_marked a qa && Automaton.is_marked b qb then
        marked := name_of qa qb :: !marked;
      if Automaton.is_forbidden a qa || Automaton.is_forbidden b qb then
        forbidden := name_of qa qb :: !forbidden
    end
  in
  let start = (Automaton.initial a, Automaton.initial b) in
  visit start;
  while not (Queue.is_empty queue) do
    let qa, qb = Queue.pop queue in
    Event.Set.iter
      (fun e ->
        let in_a = Event.Set.mem e sigma_a and in_b = Event.Set.mem e sigma_b in
        let next =
          match (in_a, in_b) with
          | true, true -> (
              match (Automaton.step a qa e, Automaton.step b qb e) with
              | Some ja, Some jb -> Some (ja, jb)
              | _ -> None)
          | true, false -> Option.map (fun ja -> (ja, qb)) (Automaton.step a qa e)
          | false, true -> Option.map (fun jb -> (qa, jb)) (Automaton.step b qb e)
          | false, false -> None
        in
        match next with
        | None -> ()
        | Some (ja, jb) ->
            visit (ja, jb);
            transitions := (name_of qa qb, e, name_of ja jb) :: !transitions)
      alphabet
  done;
  Automaton.create ~marked:!marked ~forbidden:!forbidden
    ~alphabet:(Event.Set.elements alphabet)
    ~name:(Automaton.name a ^ "||" ^ Automaton.name b)
    ~initial:(name_of (fst start) (snd start))
    ~transitions:!transitions ()

(* String-native reference numbering: the states of [a ‖ b] in the
   documented discovery order — breadth first from the initial pair,
   each state's successors reached through a's enabled events, then
   b's private ones, each in event-id order — each with its marked and
   forbidden flags. *)
let ref_pair_order a b =
  let sigma_a = Automaton.alphabet a and sigma_b = Automaton.alphabet b in
  let by_id events =
    List.sort (fun x y -> Int.compare (Event.id x) (Event.id y)) events
  in
  let seen = Hashtbl.create 64 and queue = Queue.create () in
  let order = ref [] in
  let visit (qa, qb) =
    if not (Hashtbl.mem seen (qa, qb)) then begin
      Hashtbl.add seen (qa, qb) ();
      Queue.push (qa, qb) queue;
      order :=
        ( Names_oracle.join [ qa; qb ],
          Automaton.is_marked a qa && Automaton.is_marked b qb,
          Automaton.is_forbidden a qa || Automaton.is_forbidden b qb )
        :: !order
    end
  in
  visit (Automaton.initial a, Automaton.initial b);
  while not (Queue.is_empty queue) do
    let qa, qb = Queue.pop queue in
    List.iter
      (fun e ->
        let ja = Option.get (Automaton.step a qa e) in
        if not (Event.Set.mem e sigma_b) then visit (ja, qb)
        else Option.iter (fun jb -> visit (ja, jb)) (Automaton.step b qb e))
      (by_id (Automaton.enabled a qa));
    List.iter
      (fun e ->
        if not (Event.Set.mem e sigma_a) then
          visit (qa, Option.get (Automaton.step b qb e)))
      (by_id (Automaton.enabled b qb))
  done;
  List.rev !order

let test_indexed_compose_matches_reference () =
  for seed = 0 to 59 do
    let a = random_automaton ~seed ~name:"RA" in
    let b = random_automaton ~seed:(seed + 1000) ~name:"RB" in
    let fast = Compose.pair a b in
    let slow = ref_pair a b in
    if not (Automaton.isomorphic fast slow) then
      Alcotest.failf "seed %d: indexed compose differs from reference" seed;
    (* and the names agree exactly, not just up to isomorphism *)
    if
      List.sort String.compare (Automaton.states fast)
      <> List.sort String.compare (Automaton.states slow)
    then Alcotest.failf "seed %d: state names differ" seed;
    (* and each index holds the reference numbering's state and flags *)
    let order = ref_pair_order a b in
    if Automaton.states fast <> List.map (fun (q, _, _) -> q) order then
      Alcotest.failf "seed %d: state numbering differs" seed;
    List.iteri
      (fun i (q, marked, forbidden) ->
        if
          Automaton.is_marked_index fast i <> marked
          || Automaton.is_forbidden_index fast i <> forbidden
        then Alcotest.failf "seed %d: flags of %d (%s) differ" seed i q)
      order
  done

(* String-native reference restriction with the documented survive rule:
   a kept state survives when it is the initial state or an endpoint of a
   kept transition. *)
let ref_restrict a keep =
  if not (keep (Automaton.initial a)) then None
  else
    let trans =
      List.filter
        (fun { Automaton.src; dst; _ } -> keep src && keep dst)
        (Automaton.transitions a)
    in
    let survivors =
      Automaton.initial a
      :: List.concat_map (fun { Automaton.src; dst; _ } -> [ src; dst ]) trans
    in
    let survives s = List.mem s survivors in
    Some
      (Automaton.create
         ~marked:(List.filter survives (Automaton.marked a))
         ~forbidden:(List.filter survives (Automaton.forbidden a))
         ~alphabet:(Event.Set.elements (Automaton.alphabet a))
         ~name:(Automaton.name a) ~initial:(Automaton.initial a)
         ~transitions:
           (List.map
              (fun { Automaton.src; event; dst } -> (src, event, dst))
              trans)
         ())

let test_restrict_indices_matches_reference () =
  for seed = 0 to 59 do
    let a = random_automaton ~seed ~name:"RR" in
    let n = Automaton.num_states a in
    let keep = Array.init n (fun i -> ((i * 7) + seed) mod 3 <> 0) in
    let by_index = Automaton.restrict_indices a keep in
    let by_name =
      ref_restrict a (fun s -> keep.(Automaton.index_of_state a s))
    in
    match (by_index, by_name) with
    | None, None -> ()
    | Some x, Some y ->
        if not (Automaton.isomorphic x y) then
          Alcotest.failf "seed %d: restriction differs from reference" seed;
        if
          List.sort String.compare (Automaton.states x)
          <> List.sort String.compare (Automaton.states y)
        then Alcotest.failf "seed %d: restricted state names differ" seed
    | Some _, None | None, Some _ ->
        Alcotest.failf "seed %d: restriction None-ness differs" seed
  done

(* Reference CSR row builder: the tuple-sort construction — bucket the
   triples by source and sort each row's (event, dst) pairs. *)
let ref_rows n trans =
  let rows = Array.make n [] in
  Array.iter (fun (s, e, d) -> rows.(s) <- (e, d) :: rows.(s)) trans;
  Array.map (List.sort compare) rows

(* The same sort as (row, event, target) arrays for {!Automaton.of_csr}. *)
let csr_of_triples n trans =
  let trans = Array.of_list (List.sort compare trans) in
  let row = Array.make (n + 1) 0 in
  Array.iter (fun (s, _, _) -> row.(s + 1) <- row.(s + 1) + 1) trans;
  for i = 0 to n - 1 do
    row.(i + 1) <- row.(i + 1) + row.(i)
  done;
  ( row,
    Array.map (fun (_, e, _) -> e) trans,
    Array.map (fun (_, _, d) -> d) trans )

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let csr_events =
  Array.init 12 (fun i -> Event.controllable (Printf.sprintf "csr_e%d" i))

(* Seeded random deterministic triple sets over a fixed alphabet, fed to
   [create] in shuffled order: its rows must be exactly the reference
   rows (event ids and destination names, in order), which of_csr takes
   back as they are; of_csr rejects a row with two events swapped or an
   event id repeated, and [create] rejects one triple duplicated on
   another destination, naming the state and the event. *)
let test_csr_matches_reference () =
  let name i = Printf.sprintf "s%d" i in
  for seed = 0 to 49 do
    let rng = Random.State.make [| seed |] in
    let n = 1 + Random.State.int rng 30 in
    let trans = ref [] in
    for s = 0 to n - 1 do
      Array.iter
        (fun e ->
          if Random.State.int rng 3 = 0 then
            trans := (s, e, Random.State.int rng n) :: !trans)
        csr_events
    done;
    let trans = Array.of_list !trans in
    shuffle rng trans;
    let build trans =
      Automaton.create ~name:"CSR" ~initial:(name 0)
        ~transitions:
          (List.map (fun (s, e, d) -> (name s, e, name d)) (Array.to_list trans))
        ()
    in
    let built = build trans in
    let reference =
      ref_rows n (Array.map (fun (s, e, d) -> (s, Event.id e, d)) trans)
    in
    Array.iteri
      (fun s ref_row ->
        let expected = List.map (fun (e, d) -> (e, name d)) ref_row in
        let got =
          if Automaton.mem_state built (name s) then begin
            let acc = ref [] in
            Automaton.iter_row built
              (Automaton.index_of_state built (name s))
              (fun e d -> acc := (e, Automaton.state_of_index built d) :: !acc);
            List.rev !acc
          end
          else []
        in
        if got <> expected then
          Alcotest.failf "seed %d: row of %s differs from the reference" seed
            (name s))
      reference;
    (* of_csr over the built rows is the same automaton. *)
    let m = Automaton.num_states built in
    let of_csr ~row ~event ~target =
      Automaton.of_csr ~name:"CSR"
        ~names:(Names (Array.of_list (Automaton.states built)))
        ~alphabet:(Automaton.alphabet built) ~initial:0
        ~marked:(Array.make m true) ~forbidden:(Array.make m false) ~row
        ~event ~target
    in
    let row, ev, dst = Automaton.csr built in
    if
      Automaton.structural_digest
        (of_csr ~row:(Array.copy row) ~event:(Array.copy ev)
           ~target:(Array.copy dst))
      <> Automaton.structural_digest built
    then Alcotest.failf "seed %d: of_csr differs from create" seed;
    let rejects event =
      match of_csr ~row ~event ~target:dst with
      | _ -> false
      | exception Invalid_argument _ -> true
    in
    let wide = List.filter (fun s -> row.(s + 1) - row.(s) >= 2) in
    (match wide (List.init m Fun.id) with
    | s :: _ ->
        let swapped = Array.copy ev in
        swapped.(row.(s)) <- ev.(row.(s) + 1);
        swapped.(row.(s) + 1) <- ev.(row.(s));
        check_bool "unsorted row rejected" true (rejects swapped);
        let repeated = Array.copy ev in
        repeated.(row.(s) + 1) <- ev.(row.(s));
        check_bool "repeated event id rejected" true (rejects repeated)
    | [] -> ());
    if n > 1 && Array.length trans > 0 then begin
      let s, e, d = trans.(Random.State.int rng (Array.length trans)) in
      let bad = Array.append trans [| (s, e, (d + 1) mod n) |] in
      shuffle rng bad;
      Alcotest.check_raises "nondeterminism rejected"
        (Invalid_argument
           (Printf.sprintf "Automaton CSR: nondeterministic on %S from state %S"
              (Event.name e) (name s)))
        (fun () -> ignore (build bad))
    end
  done

(* The old index restriction, which always copied: the reference for
   restrict_indices' results, digest for digest. *)
let ref_restrict_indices a keep =
  let n = Automaton.num_states a in
  let init = Automaton.initial_index a in
  if not keep.(init) then None
  else begin
    let survive = Array.make n false in
    survive.(init) <- true;
    let trans = ref [] in
    for s = 0 to n - 1 do
      if keep.(s) then
        Automaton.iter_row a s (fun e d ->
            if keep.(d) then begin
              survive.(s) <- true;
              survive.(d) <- true;
              trans := (s, e, d) :: !trans
            end)
    done;
    let new_of_old = Array.make n (-1) and m = ref 0 in
    Array.iteri
      (fun i sv ->
        if sv then begin
          new_of_old.(i) <- !m;
          incr m
        end)
      survive;
    let old_of_new = Array.make !m 0 in
    Array.iteri (fun i j -> if j >= 0 then old_of_new.(j) <- i) new_of_old;
    let row, event, target =
      csr_of_triples !m
        (List.map (fun (s, e, d) -> (new_of_old.(s), e, new_of_old.(d))) !trans)
    in
    Some
      (Automaton.of_csr ~name:(Automaton.name a)
         ~names:(Names (Array.map (Automaton.state_of_index a) old_of_new))
         ~alphabet:(Automaton.alphabet a) ~initial:new_of_old.(init)
         ~marked:(Array.map (Automaton.is_marked_index a) old_of_new)
         ~forbidden:(Array.map (Automaton.is_forbidden_index a) old_of_new)
         ~row ~event ~target)
  end

let test_restrict_identity () =
  let go = Event.controllable "rid_go" and back = Event.uncontrollable "rid_back" in
  let a =
    Automaton.create ~marked:[ "A" ] ~name:"RID" ~initial:"A"
      ~transitions:[ ("A", go, "B"); ("B", go, "C"); ("C", back, "A") ]
      ()
  in
  check_bool "fully accessible: accessible is the automaton itself" true
    (Reach.accessible a == a);
  check_bool "keep-all restriction is the automaton itself" true
    (match Automaton.restrict_indices a (Array.make 3 true) with
    | Some b -> b == a
    | None -> false);
  let b =
    Automaton.create ~marked:[ "A" ] ~name:"RID2" ~initial:"A"
      ~transitions:
        [ ("A", go, "B"); ("B", back, "A"); ("Lost", go, "A"); ("Lost", back, "B") ]
      ()
  in
  let acc = Reach.accessible b in
  check_bool "an unreachable state forces a copy" true (acc != b);
  check_int "the unreachable state is dropped" 2 (Automaton.num_states acc);
  match ref_restrict_indices b (Reach.accessible_indices b) with
  | Some r ->
      check_string "copy digest matches the reference restriction"
        (Automaton.structural_digest r)
        (Automaton.structural_digest acc)
  | None -> Alcotest.fail "reference restriction unexpectedly empty"

(* A product's state names are written on first use.  Two domains
   forcing a fresh product's names at once must both get them — a
   [Lazy.t] raised [CamlinternalLazy.Undefined] on the slower domain.
   The 3600-state grid takes long enough to name that the two overlap. *)
let test_names_from_two_domains () =
  let chain name =
    let e = Event.controllable (name ^ "_step") in
    Automaton.create ~name ~initial:"s0"
      ~transitions:
        (List.init 59 (fun i ->
             (Printf.sprintf "s%d" i, e, Printf.sprintf "s%d" (i + 1))))
      ()
  in
  let a = chain "race_a" and b = chain "race_b" in
  let expected = Automaton.states (Compose.pair a b) in
  for _ = 1 to 10 do
    let p = Compose.pair a b in
    let look () = (Automaton.states p, Automaton.index_of_state p "s1.s2") in
    let other = Domain.spawn look in
    let mine = look () in
    check_bool "both domains see the names" true
      (mine = (expected, Automaton.index_of_state (Compose.pair a b) "s1.s2")
      && Domain.join other = mine)
  done

let test_index_api_roundtrip () =
  for seed = 0 to 19 do
    let a = random_automaton ~seed ~name:"IDX" in
    for i = 0 to Automaton.num_states a - 1 do
      let s = Automaton.state_of_index a i in
      check_int "index round trip" i (Automaton.index_of_state a s);
      let cnt = ref 0 in
      Automaton.iter_row a i (fun eid d ->
          incr cnt;
          let e = Automaton.event_of_id a eid in
          check_int "row event id decodes" eid (Event.id e);
          (match Automaton.step a s e with
          | Some d' ->
              check_string "step agrees with row" (Automaton.state_of_index a d)
                d'
          | None -> Alcotest.fail "row transition missing from step");
          check_bool "step_index agrees with row" true
            (Automaton.step_index a i eid = Some d));
      check_int "out_degree" !cnt (Automaton.out_degree a i)
    done
  done

let test_digest_deterministic () =
  let a = random_automaton ~seed:7 ~name:"DG" in
  let d1 = Automaton.structural_digest a in
  check_string "cached call stable" d1 (Automaton.structural_digest a);
  (* an identically-constructed automaton digests identically within the
     process *)
  let b = random_automaton ~seed:7 ~name:"DG" in
  check_string "same structure, same digest" d1 (Automaton.structural_digest b);
  check_bool "automaton name participates" false
    (String.equal d1 (Automaton.structural_digest (Automaton.rename a "DG2")));
  (* products digest deterministically too (lazy names forced by the
     digest) *)
  let p1 = Compose.pair a (random_automaton ~seed:8 ~name:"DH") in
  let p2 = Compose.pair b (random_automaton ~seed:8 ~name:"DH") in
  check_string "product digest deterministic"
    (Automaton.structural_digest p1)
    (Automaton.structural_digest p2)

(* The digest's encoding is injective on single edits: starting from one
   automaton, changing exactly one of its parts changes the digest.  The
   row move keeps the flattened (event, target) sequence and the
   transition count, so only the row offsets tell the two apart. *)
let test_digest_injective () =
  let a = Event.controllable "dinj_a" in
  let b_u = Event.uncontrollable "dinj_b" in
  let b_c = Event.controllable "dinj_b" in
  let build ?(name = "DI") ?(names = [| "s0"; "s1"; "s2" |]) ?(b = b_u)
      ?(marked = [| true; false; false |])
      ?(forbidden = [| false; false; false |])
      ?(trans = [ (0, a, 1); (1, b_u, 2); (2, a, 0) ]) () =
    let row, event, target =
      csr_of_triples 3
        (List.map
           (fun (s, e, d) -> (s, Event.id (if e == b_u then b else e), d))
           trans)
    in
    Automaton.of_csr ~name
      ~names:(Names (Array.copy names))
      ~alphabet:(Event.set_of_list [ a; b ])
      ~initial:0 ~marked ~forbidden ~row ~event ~target
  in
  let base = Automaton.structural_digest (build ()) in
  check_string "rebuilt base digests the same" base
    (Automaton.structural_digest (build ()));
  List.iter
    (fun (what, v) ->
      check_bool what false (String.equal base (Automaton.structural_digest v)))
    [
      ("automaton name", build ~name:"DJ" ());
      ("one state name", build ~names:[| "s0"; "t1"; "s2" |] ());
      ("one event's controllability", build ~b:b_c ());
      ( "one transition's target",
        build ~trans:[ (0, a, 1); (1, b_u, 2); (2, a, 1) ] () );
      ( "one transition moved to another row",
        build ~trans:[ (0, a, 1); (0, b_u, 2); (2, a, 0) ] () );
      ("one marked bit", build ~marked:[| true; true; false |] ());
      ("one forbidden bit", build ~forbidden:[| false; false; true |] ());
    ]

let test_unescape_state_name () =
  check_string "product escape undone" "Eval.Safe.Uncapped"
    (Automaton.unescape_state_name "Eval\\.Safe.Uncapped");
  check_string "escaped backslash" "a\\b"
    (Automaton.unescape_state_name "a\\\\b");
  check_string "plain name untouched" "plain"
    (Automaton.unescape_state_name "plain")

(* ------------------------------------------------------------------ *)
(* Names written from components                                       *)
(* ------------------------------------------------------------------ *)

(* A cluster and a budget spec whose state names carry '.' and '\', so
   every level of nesting escapes something. *)
let odd_cluster i =
  let e fmt = Printf.sprintf fmt i in
  Automaton.create ~marked:[ "Id.le" ] ~name:(e "Od%d") ~initial:"Id.le"
    ~transitions:
      [
        ("Id.le", Event.controllable (e "ostart%d"), "Bu\\sy");
        ("Bu\\sy", Event.uncontrollable (e "odone%d"), "Id.le");
        ("Bu\\sy", Event.uncontrollable (e "oheat%d"), "H.o\\.t");
        ("H.o\\.t", Event.controllable (e "ocool%d"), "Id.le");
      ]
    ()

let odd_spec ~k ~cap =
  let state j = Printf.sprintf "B.%d" j in
  let transitions = ref [] in
  let add t = transitions := t :: !transitions in
  for i = 1 to k do
    let e fmt = Printf.sprintf fmt i in
    for j = 0 to cap - 1 do
      add (state j, Event.controllable (e "ostart%d"), state (j + 1));
      add (state j, Event.uncontrollable (e "oheat%d"), state j)
    done;
    for j = 1 to cap do
      add (state j, Event.uncontrollable (e "odone%d"), state (j - 1));
      add (state j, Event.controllable (e "ocool%d"), state (j - 1))
    done;
    add (state cap, Event.uncontrollable (e "oheat%d"), "Ov\\er")
  done;
  Automaton.create ~marked:[ state 0 ] ~forbidden:[ "Ov\\er" ] ~name:"OdSpec"
    ~initial:(state 0) ~transitions:!transitions ()

(* [Compose.all]'s tree (size-sorted rounds of adjacent pairs) over the
   string-native [ref_pair]: the reference names of a nested product. *)
let ref_all comps =
  let by_size =
    List.stable_sort (fun x y ->
        Int.compare (Automaton.num_states x) (Automaton.num_states y))
  in
  let rec pairwise = function
    | a :: b :: rest -> ref_pair a b :: pairwise rest
    | tail -> tail
  in
  let rec rounds = function [ a ] -> a | l -> rounds (pairwise (by_size l)) in
  rounds comps

(* A supervisor's names by the join oracle: each state's component
   states, tracked along the supervisor's own transitions from the
   initial tuple, joined flat. *)
let ref_supervisor_names sup comps =
  let comps = Array.of_list comps in
  let tuple = Array.make (Automaton.num_states sup) [||] in
  let queue = Queue.create () in
  let i0 = Automaton.initial_index sup in
  tuple.(i0) <- Array.map Automaton.initial comps;
  Queue.push i0 queue;
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    Automaton.iter_row sup s (fun eid d ->
        if tuple.(d) = [||] then begin
          let e = Automaton.event_of_id sup eid in
          tuple.(d) <-
            Array.mapi
              (fun c q ->
                if Event.Set.mem e (Automaton.alphabet comps.(c)) then
                  Option.get (Automaton.step comps.(c) q e)
                else q)
              tuple.(s);
          Queue.push d queue
        end)
  done;
  Array.to_list
    (Array.map (fun t -> Names_oracle.join (Array.to_list t)) tuple)

(* [build ()] makes a fresh, identical automaton each call.  Its digest
   taken before any name is written must equal the digest taken after
   [Automaton.states] and the oracle's rebuilt byte image; its names
   must be [expected] (in index order, or as a set when [sorted]). *)
let check_names ?(sorted = false) what build expected =
  let unforced = Automaton.structural_digest (build ()) in
  let forced = build () in
  let names = Automaton.states forced in
  check_string (what ^ ": digest before and after naming") unforced
    (Automaton.structural_digest forced);
  check_string (what ^ ": digest equals the oracle image") unforced
    (Names_oracle.digest forced);
  let order l = if sorted then List.sort String.compare l else l in
  Alcotest.(check (list string))
    (what ^ ": names equal the join oracle")
    (order expected) (order names)

let test_names_written_from_components () =
  let odd k = List.init k (fun i -> odd_cluster (i + 1)) in
  check_names ~sorted:true "Compose.all of 5"
    (fun () -> Compose.all (odd 5))
    (Automaton.states (ref_all (odd 5)));
  let tree pair =
    match odd 5 with
    | [ a; b; c; d; e ] -> pair (pair a (pair b c)) (pair (pair d e) a)
    | _ -> assert false
  in
  check_names ~sorted:true "explicit tree of depth 3"
    (fun () -> tree Compose.pair)
    (Automaton.states (tree ref_pair));
  let plants = odd 3 and spec = odd_spec ~k:3 ~cap:2 in
  let sup () =
    match Synthesis.supcon_modular ~plants ~spec () with
    | Ok (s, _) -> s
    | Error _ -> Alcotest.fail "odd family: unexpected empty supervisor"
  in
  check_names "supcon_modular supervisor" sup
    (ref_supervisor_names (sup ()) (plants @ [ spec ]));
  (* The supervisor fed back as a plant: composed, and synthesized
     against a tighter spec (pinned to the oracle engine). *)
  check_names ~sorted:true "supervisor || cluster"
    (fun () -> Compose.pair (sup ()) (odd_cluster 4))
    (Automaton.states (ref_pair (sup ()) (odd_cluster 4)));
  let tight = odd_spec ~k:3 ~cap:1 in
  let resynth () =
    match Synthesis.supcon ~plant:(sup ()) ~spec:tight with
    | Ok (s, _) -> s
    | Error _ -> Alcotest.fail "odd family: unexpected empty re-synthesis"
  in
  (match Supcon_oracle.supcon ~plant:(sup ()) ~spec:tight with
  | Ok (o, _) -> check_names "supervisor as plant" resynth (Automaton.states o)
  | Error _ -> Alcotest.fail "oracle: unexpected empty re-synthesis");
  (* Restrictions keep their parts and the surviving keys. *)
  let keep p = Array.init (Automaton.num_states p) (fun i -> i mod 3 <> 2) in
  let restricted () =
    let p = Compose.all (odd 4) in
    match Automaton.restrict_indices p (keep p) with
    | Some r -> Reach.accessible r
    | None -> Alcotest.fail "restriction dropped the initial state"
  in
  let reference =
    let p = Compose.all (odd 4) in
    let keep = keep p in
    match ref_restrict p (fun s -> keep.(Automaton.index_of_state p s)) with
    | Some r -> Reach.accessible r
    | None -> Alcotest.fail "reference restriction dropped the initial state"
  in
  check_bool "restriction drops states" true
    (Automaton.num_states (restricted ()) < Automaton.num_states (Compose.all (odd 4)));
  check_names ~sorted:true "accessible part of a restricted product" restricted
    (Automaton.states reference)

(* The state table against [Hashtbl]: every key gets the index it was
   first seen with, in order, across several doublings of the slots and
   the key vector's chunks.  Keys include 0, max_int, neighbours, keys
   that differ only above bit 40 and many repeats. *)
let prop_inttbl_first_seen =
  let open QCheck2.Gen in
  let key =
    frequency
      [
        (4, int_range 0 50);
        (2, map (fun k -> max_int - k) (int_range 0 50));
        (2, map (fun k -> k lsl 40) (int_range 0 50));
        (3, int_range 0 max_int);
      ]
  in
  QCheck2.Test.make ~name:"Inttbl numbers keys in first-seen order" ~count:200
    (list_size (int_range 0 3000) key)
    (fun keys ->
      let t = Inttbl.create () and h = Hashtbl.create 16 in
      let order = ref [] in
      List.for_all
        (fun k ->
          let expected =
            match Hashtbl.find_opt h k with
            | Some i -> i
            | None ->
                let i = Hashtbl.length h in
                Hashtbl.add h k i;
                order := k :: !order;
                i
          in
          Inttbl.intern t k = expected && Inttbl.length t = Hashtbl.length h)
        keys
      && List.for_all2
           (fun i k -> Inttbl.key t i = k)
           (List.init (Inttbl.length t) Fun.id)
           (List.rev !order))

(* The same over 100 000 distinct keys, interned twice: the slots double
   ten times and the key vector spans four chunks. *)
let test_inttbl_large () =
  let t = Inttbl.create () in
  let key i = (i * 0x9E3779B1) land max_int in
  for i = 0 to 99_999 do
    if Inttbl.intern t (key i) <> i then Alcotest.failf "key %d: new index" i
  done;
  for i = 0 to 99_999 do
    if Inttbl.intern t (key i) <> i then Alcotest.failf "key %d: old index" i;
    if Inttbl.key t i <> key i then Alcotest.failf "key %d: stored key" i
  done;
  check_int "distinct keys" 100_000 (Inttbl.length t)

(* ------------------------------------------------------------------ *)
(* The synthesis engine: supcon / supcon_modular / the bugfixed passes, *)
(* pinned against their references.                                    *)
(* ------------------------------------------------------------------ *)

(* The bench's k-cluster plant family and shared budget spec, reduced:
   the canonical many-component workload for the modular engine. *)
let cluster_plant ?(tag = "") i =
  let e fmt = tag ^ Printf.sprintf fmt i in
  Automaton.create ~marked:[ "Idle" ] ~name:(e "Cl%d") ~initial:"Idle"
    ~transitions:
      [
        ("Idle", Event.controllable (e "start%d"), "Busy");
        ("Busy", Event.uncontrollable (e "done%d"), "Idle");
        ("Busy", Event.uncontrollable (e "overheat%d"), "Hot");
        ("Hot", Event.controllable (e "cool%d"), "Idle");
      ]
    ()

let cluster_budget_spec ?(tag = "") ~k ~cap () =
  let state j = Printf.sprintf "B%d" j in
  let transitions = ref [] in
  let add t = transitions := t :: !transitions in
  for i = 1 to k do
    let e fmt = tag ^ Printf.sprintf fmt i in
    for j = 0 to cap - 1 do
      add (state j, Event.controllable (e "start%d"), state (j + 1));
      add (state j, Event.uncontrollable (e "overheat%d"), state j)
    done;
    for j = 1 to cap do
      add (state j, Event.uncontrollable (e "done%d"), state (j - 1));
      add (state j, Event.controllable (e "cool%d"), state (j - 1))
    done;
    add (state cap, Event.uncontrollable (e "overheat%d"), "Over")
  done;
  Automaton.create ~marked:[ state 0 ] ~forbidden:[ "Over" ]
    ~name:(Printf.sprintf "Bud%d" cap)
    ~initial:(state 0) ~transitions:!transitions ()

(* The engine's hard pin: supcon returns a result byte-identical to
   the independent sequential oracle — same digest (hence same states,
   names and transitions), same stats, same Verify verdicts. *)
let test_supcon_matches_oracle () =
  for seed = 0 to 59 do
    let plant = random_automaton ~seed ~name:"PP" in
    let spec = random_automaton ~seed:(seed + 3000) ~name:"PS" in
    match (Supcon_oracle.supcon ~plant ~spec, Synthesis.supcon ~plant ~spec) with
    | Error Synthesis.Empty_supervisor, Error Synthesis.Empty_supervisor -> ()
    | Ok (sa, ta), Ok (sb, tb) ->
        if Automaton.structural_digest sa <> Automaton.structural_digest sb
        then Alcotest.failf "seed %d: supcon digest differs" seed;
        if ta <> tb then Alcotest.failf "seed %d: supcon stats differ" seed;
        let verdict s = Verify.controllable ~plant ~supervisor:s = Ok () in
        if verdict sa <> verdict sb then
          Alcotest.failf "seed %d: controllability verdicts differ" seed
    | Ok _, Error _ -> Alcotest.failf "seed %d: supcon empty, oracle not" seed
    | Error _, Ok _ -> Alcotest.failf "seed %d: oracle empty, supcon not" seed
  done

(* The k = 9, cap = 8 member is the synth benchmark's monolithic
   family: 21457 product and 16867 supervisor states; k = 4, cap = 3 is
   the first row of the synthesis-scale bench. *)
let test_supcon_cluster_family () =
  List.iter
    (fun (k, cap, sizes) ->
      let plant = Compose.all (List.init k (fun i -> cluster_plant (i + 1))) in
      let spec = cluster_budget_spec ~k ~cap () in
      match (Supcon_oracle.supcon ~plant ~spec, Synthesis.supcon ~plant ~spec) with
      | Ok (sa, ta), Ok (sb, tb) ->
          check_string
            (Printf.sprintf "k=%d digest identical" k)
            (Automaton.structural_digest sa)
            (Automaton.structural_digest sb);
          check_bool (Printf.sprintf "k=%d stats identical" k) true (ta = tb);
          Option.iter
            (fun (product, supervisor) ->
              check_int (Printf.sprintf "k=%d product states" k) product
                tb.Synthesis.product_states;
              check_int
                (Printf.sprintf "k=%d supervisor states" k)
                supervisor (Automaton.num_states sb))
            sizes
      | _ -> Alcotest.failf "k=%d: unexpected empty supervisor" k)
    [
      (2, 1, None);
      (4, 3, Some (89, 33));
      (5, 4, None);
      (9, 8, Some (21457, 16867));
    ]

(* The synthesis-scale bench's k = 6, cap = 5 row (bench event names,
   this file's automaton names): the balanced Compose.all plant and the
   supcon supervisor, pinned digest for digest. *)
let test_cluster_family_k6_pinned () =
  let plant = Compose.all (List.init 6 (fun i -> cluster_plant (i + 1))) in
  check_string "k=6 plant digest" "a1e3faba394f925f83ed705bd617f1ac"
    (Automaton.structural_digest plant);
  match Synthesis.supcon ~plant ~spec:(cluster_budget_spec ~k:6 ~cap:5 ()) with
  | Ok (sup, _) ->
      check_string "k=6 supervisor digest" "7b17fa71764b929422be9f7ff7c5083a"
        (Automaton.structural_digest sup)
  | Error _ -> Alcotest.fail "k=6: unexpected empty supervisor"

(* Wide families with nonblocking supervisors: k = 10, cap = 6 (39045
   product, 12585 supervisor states) and the synth benchmark's k = 11,
   cap = 6 (79839 and 21627).  [jobs] is ignored, so four jobs return
   the one-job digest and stats. *)
let test_supcon_modular_wide_family () =
  List.iter
    (fun (k, cap, product, supervisor) ->
      let plants = List.init k (fun i -> cluster_plant (i + 1)) in
      let spec = cluster_budget_spec ~k ~cap () in
      let run jobs =
        match Synthesis.supcon_modular ~jobs ~plants ~spec () with
        | Ok (sup, st) -> (Automaton.structural_digest sup, st, sup)
        | Error _ -> Alcotest.failf "k=%d jobs=%d: unexpected empty" k jobs
      in
      let d1, st1, s1 = run 1 in
      check_int (Printf.sprintf "k=%d product states" k) product
        st1.Synthesis.product_states;
      check_int (Printf.sprintf "k=%d supervisor states" k) supervisor
        (Automaton.num_states s1);
      check_bool (Printf.sprintf "k=%d nonblocking" k) true
        (Verify.nonblocking s1 = Ok ());
      if k = 11 then
        check_string "k=11 digest equals the oracle's" (Names_oracle.digest s1)
          d1;
      if k = 10 then begin
        let d4, st4, _ = run 4 in
        check_string "jobs=4 digest identical" d1 d4;
        check_bool "jobs=4 stats identical" true (st4 = st1)
      end)
    [ (10, 6, 39045, 12585); (11, 6, 79839, 21627) ]

(* Modular synthesis never materializes the composed plant; its result
   is pinned to the monolithic one up to the (flat vs nested) naming. *)
let test_supcon_modular_matches_monolithic () =
  List.iter
    (fun (k, cap) ->
      let plants = List.init k (fun i -> cluster_plant (i + 1)) in
      let spec = cluster_budget_spec ~k ~cap () in
      match
        ( Synthesis.supcon ~plant:(Compose.all plants) ~spec,
          Synthesis.supcon_modular ~plants ~spec () )
      with
      | Ok (sa, ta), Ok (sb, tb) ->
          check_bool
            (Printf.sprintf "k=%d isomorphic" k)
            true (Automaton.isomorphic sa sb);
          check_bool (Printf.sprintf "k=%d stats" k) true (ta = tb);
          check_bool
            (Printf.sprintf "k=%d nonblocking" k)
            true
            (Verify.nonblocking sb = Ok ())
      | _ -> Alcotest.failf "k=%d: unexpected empty" k)
    [ (2, 1); (3, 2); (4, 3); (6, 5) ]

(* Bytes per transition for the k = 8, cap = 7 family (7313 product
   states), counted in closed windows ({!Alloc.bytes}), which read the
   same every run.  Each budget is 10 % over what the index-only state
   table, the good-region predecessors and the 32-bit chunked buffers
   read: 40.1 B for modular synthesis, 34.4 B for Compose.all of the 8
   clusters.  The structural digest of a renamed copy of the
   supervisor, its names never written before, streams its 1.1 MB of
   bytes: it may allocate its 64 KB buffer and 10 % over the 4 656 B
   more it reads, and no image. *)
let test_synthesis_alloc_budgets () =
  let plants = List.init 8 (fun i -> cluster_plant (i + 1)) in
  let spec = cluster_budget_spec ~k:8 ~cap:7 () in
  let product = Compose.pair (Compose.all plants) spec in
  let gate name ~budget ~transitions f =
    let r, bytes = Alloc.bytes f in
    let per = bytes /. float_of_int (transitions r) in
    check_bool
      (Printf.sprintf "%s: %.1f B/transition (budget %.1f)" name per budget)
      true (per <= budget);
    r
  in
  let sup =
    gate "supcon_modular k=8 cap=7" ~budget:(40.1 *. 1.1)
      ~transitions:(function
        | Ok (_, st) when st.Synthesis.product_states = 7313 ->
            Automaton.num_transitions product
        | _ -> Alcotest.fail "k=8 cap=7 lost its 7313 product states")
      (fun () -> Synthesis.supcon_modular ~plants ~spec ())
  in
  ignore
    (gate "Compose.all 8 clusters" ~budget:(34.4 *. 1.1)
       ~transitions:Automaton.num_transitions (fun () -> Compose.all plants));
  match sup with
  | Ok (sup, _) ->
      let a = Automaton.rename sup "k8a" in
      let d, bytes = Alloc.bytes (fun () -> Automaton.structural_digest a) in
      check_string "digest equals the oracle's" (Names_oracle.digest a) d;
      let budget = 65536. +. (4656. *. 1.1) in
      check_bool
        (Printf.sprintf "structural_digest: %.0f B (budget %.0f B, image %d B)"
           bytes budget
           (String.length (Names_oracle.image a)))
        true (bytes <= budget)
  | Error _ -> assert false

(* The k = 8 supervisor's structural digest allocates by its alphabet,
   not by the span of its event ids, so the same supervisor costs the
   same whether its events were minted first or among other families.
   Family "ia" mints its 32 events in one run; family "ib" (names of the
   same length) mints 20 unrelated events before each of its own,
   spreading its ids over ~21 times the span.  Each side is the digest
   of a renamed copy, in a closed window; a table sized by the id span
   would cost "ib" about 5 KB more. *)
let test_digest_alloc_by_alphabet () =
  let junk = ref 0 in
  for i = 1 to 8 do
    List.iter
      (fun (name, mk) ->
        for _ = 1 to 20 do
          incr junk;
          ignore (Event.controllable (Printf.sprintf "ib-junk%d" !junk))
        done;
        ignore (mk (Printf.sprintf "ib%s%d" name i)))
      Event.[ ("start", controllable); ("done", uncontrollable);
              ("overheat", uncontrollable); ("cool", controllable) ]
  done;
  let digest_bytes tag =
    let plants = List.init 8 (fun i -> cluster_plant ~tag (i + 1)) in
    match
      Synthesis.supcon_modular ~plants ~spec:(cluster_budget_spec ~tag ~k:8 ~cap:7 ()) ()
    with
    | Error _ -> Alcotest.fail "k=8 cap=7: empty supervisor"
    | Ok (sup, _) ->
        let a = Automaton.rename sup "k8a" in
        snd (Alloc.bytes (fun () -> Automaton.structural_digest a))
  in
  let first = digest_bytes "ia" and spread = digest_bytes "ib" in
  check_bool
    (Printf.sprintf "digest bytes: minted first %.0f, minted spread %.0f" first spread)
    true
    (Float.abs (spread -. first) <= 256.)

(* The digest streams its bytes through a 64 KB buffer.  Here state
   names cross the buffer's boundary again and again, one event name
   crosses it, and one state name and one event name are longer than
   the whole buffer — in a leaf automaton and in a product, whose names
   are written from its parts and escaped.  Each digest, taken before
   any name is written, equals the oracle's. *)
let test_digest_across_buffer () =
  let tick = Event.controllable "buf-tick"
  and cross = Event.controllable ("buf-cross." ^ String.make 40_000 'c')
  and huge = Event.uncontrollable ("buf-huge\\" ^ String.make 70_000 'h') in
  let state i = Printf.sprintf "s%d.%s" i (String.make 9_000 'x') in
  let big = "big\\" ^ String.make 100_000 'y' in
  let leaf () =
    Automaton.create ~marked:[ state 0 ] ~name:"Buf" ~initial:(state 0)
      ~transitions:
        ((big, tick, state 0)
        :: List.concat
             (List.init 12 (fun i ->
                  [ (state i, cross, state (i + 1)); (state i, huge, big) ])))
      ()
  in
  let other =
    Automaton.create ~name:"Other" ~initial:"o.0"
      ~transitions:[ ("o.0", tick, "o\\1"); ("o\\1", tick, "o.0") ]
      ()
  in
  List.iter
    (fun (what, a) ->
      let d = Automaton.structural_digest a in
      check_string (what ^ ": digest equals the oracle's")
        (Names_oracle.digest a) d)
    [ ("leaf", leaf ()); ("product", Compose.pair (leaf ()) other) ]

(* The 32-bit store holds exactly the words of [0, 2^32): the bounds
   round-trip, anything else is refused and not stored, and values
   survive the first chunk's growth and the move to further chunks. *)
let test_wordvec_words () =
  let v = Wordvec.create () in
  List.iter (Wordvec.push v) [ 0; 1; (1 lsl 32) - 1 ];
  check_int "largest word" ((1 lsl 32) - 1) (Wordvec.get v 2);
  List.iter
    (fun x ->
      match Wordvec.push v x with
      | () -> Alcotest.failf "%d accepted" x
      | exception Invalid_argument _ -> ())
    [ -1; 1 lsl 32; max_int; min_int ];
  check_int "refused words not stored" 3 (Wordvec.length v);
  for i = 3 to 99_999 do
    Wordvec.push v ((i * 40_503) land 0xffff_ffff)
  done;
  for i = 99_999 downto 3 do
    if Wordvec.pop v <> (i * 40_503) land 0xffff_ffff then
      Alcotest.failf "word %d" i
  done;
  let z = Wordvec.make 70_000 in
  check_int "made length" 70_000 (Wordvec.length z);
  check_int "made words are zero" 0 (Wordvec.get z 69_999)

(* Empty-supervisor edge case: the initial state is uncontrollably bad
   on every path, for the engine and the oracle alike. *)
let test_engine_empty () =
  let breaks = Event.uncontrollable "par_breaks" in
  let plant =
    Automaton.create ~name:"PE" ~initial:"Up"
      ~transitions:[ ("Up", breaks, "Down") ]
      ()
  in
  let spec =
    Automaton.create ~forbidden:[ "Bad" ] ~name:"SE" ~initial:"Ok"
      ~transitions:[ ("Ok", breaks, "Bad") ]
      ()
  in
  check_bool "oracle empty" true
    (Supcon_oracle.supcon ~plant ~spec = Error Synthesis.Empty_supervisor);
  check_bool "supcon empty" true
    (Synthesis.supcon ~plant ~spec = Error Synthesis.Empty_supervisor);
  check_bool "supcon_modular empty" true
    (Synthesis.supcon_modular ~plants:[ plant ] ~spec ()
    = Error Synthesis.Empty_supervisor)

(* A spec-private uncontrollable event is not a plant escape: the plant
   cannot generate it, so disabling it is free.  Pinned against the
   oracle, which encodes the same ownership rule. *)
let test_supcon_spec_private_uncontrollable () =
  let shared = Event.controllable "par_shared" in
  let private_u = Event.uncontrollable "par_spec_priv" in
  let plant =
    Automaton.create ~name:"PV" ~initial:"P0"
      ~transitions:[ ("P0", shared, "P1"); ("P1", shared, "P0") ]
      ()
  in
  let spec =
    Automaton.create ~marked:[ "S0" ] ~name:"SV" ~initial:"S0"
      ~transitions:[ ("S0", shared, "S1"); ("S1", private_u, "S0") ]
      ()
  in
  match (Supcon_oracle.supcon ~plant ~spec, Synthesis.supcon ~plant ~spec) with
  | Ok (sa, ta), Ok (sb, tb) ->
      check_string "digest identical" (Automaton.structural_digest sa)
        (Automaton.structural_digest sb);
      check_bool "stats identical" true (ta = tb);
      (* the private uncontrollable event must have survived synthesis *)
      check_bool "spec-private event kept" true
        (Event.Set.mem private_u (Automaton.alphabet sb))
  | _ -> Alcotest.fail "unexpected empty supervisor"

(* Balanced Compose.all is pinned to the old left fold: parallel
   composition is associative and commutative up to state renaming, so
   the results must be isomorphic with equal counts (names differ — the
   tree joins in size order). *)
let test_compose_all_matches_fold () =
  let check_family what comps =
    let balanced = Compose.all comps in
    let folded =
      List.fold_left Compose.pair (List.hd comps) (List.tl comps)
    in
    check_int
      (what ^ ": state count")
      (Automaton.num_states folded)
      (Automaton.num_states balanced);
    check_int
      (what ^ ": transition count")
      (Automaton.num_transitions folded)
      (Automaton.num_transitions balanced);
    check_bool (what ^ ": isomorphic") true
      (Automaton.isomorphic balanced folded)
  in
  check_family "clusters k=4" (List.init 4 (fun i -> cluster_plant (i + 1)));
  check_family "clusters k=5" (List.init 5 (fun i -> cluster_plant (i + 1)));
  for seed = 0 to 19 do
    check_family
      (Printf.sprintf "random seed %d" seed)
      [
        random_automaton ~seed ~name:"CA";
        random_automaton ~seed:(seed + 4000) ~name:"CB";
        random_automaton ~seed:(seed + 5000) ~name:"CC";
      ]
  done

(* ------------------------------------------------------------------ *)
(* Dot                                                                 *)
(* ------------------------------------------------------------------ *)

let test_dot_output () =
  let dot = Dot.to_dot m1 in
  check_bool "digraph" true
    (String.length dot > 0
    && String.sub dot 0 7 = "digraph");
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "has initial arrow" true (contains "__init ->" dot);
  check_bool "uncontrollable marked" true (contains "finish1!" dot);
  check_bool "doublecircle for marked" true (contains "doublecircle" dot)

let test_dot_forbidden_rendering () =
  let a =
    Automaton.create ~forbidden:[ "Bad" ] ~name:"f" ~initial:"A"
      ~transitions:[ ("A", Event.uncontrollable "oops", "Bad") ]
      ()
  in
  let dot = Dot.to_dot a in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "red box" true (contains "color=red" dot)

let test_dot_unescaped_labels () =
  (* Node ids keep the exact (unique) escaped state name; labels render
     the human-readable unescaped form, and edge labels come from
     Event.pp. *)
  let e1 = Event.controllable "e1" and u1 = Event.uncontrollable "u1" in
  let a =
    Automaton.create ~name:"A" ~initial:"a.b"
      ~transitions:[ ("a.b", e1, "a.b") ]
      ()
  in
  let b =
    Automaton.create ~name:"B" ~initial:"c"
      ~transitions:[ ("c", e1, "c"); ("c", u1, "c") ]
      ()
  in
  let dot = Dot.to_dot (Compose.pair a b) in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (* state name is a\.b.c → DOT-escaped node id "a\\.b.c", readable
     label "a.b.c" *)
  check_bool "node id stays escaped" true (contains "\"a\\\\.b.c\"" dot);
  check_bool "label unescaped" true (contains "label=\"a.b.c\"" dot);
  check_bool "uncontrollable edge label via Event.pp" true
    (contains "label=\"u1!\"" dot);
  check_bool "controllable edge label plain" true (contains "label=\"e1\"" dot)

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "spectr_automata"
    [
      ( "event",
        [
          Alcotest.test_case "basics" `Quick test_event_basics;
          Alcotest.test_case "ordering" `Quick test_event_order;
          Alcotest.test_case "inconsistent controllability" `Quick
            test_event_inconsistent_controllability;
          Alcotest.test_case "interning" `Quick test_event_interning;
          Alcotest.test_case "pretty printing" `Quick test_event_pp;
        ] );
      ( "automaton",
        [
          Alcotest.test_case "counts" `Quick test_automaton_counts;
          Alcotest.test_case "step" `Quick test_automaton_step;
          Alcotest.test_case "unknown state" `Quick test_automaton_unknown_state;
          Alcotest.test_case "enabled" `Quick test_automaton_enabled;
          Alcotest.test_case "nondeterminism rejected" `Quick
            test_automaton_nondeterminism_rejected;
          Alcotest.test_case "conflicting controllability rejected" `Quick
            test_automaton_conflicting_controllability;
          Alcotest.test_case "duplicate transitions ok" `Quick
            test_automaton_duplicate_transition_ok;
          Alcotest.test_case "marked default" `Quick test_automaton_marked_default;
          Alcotest.test_case "marked explicit empty" `Quick
            test_automaton_marked_explicit_empty;
          Alcotest.test_case "unknown marked" `Quick test_automaton_unknown_marked;
          Alcotest.test_case "accepts" `Quick test_automaton_accepts;
          Alcotest.test_case "trace" `Quick test_automaton_trace;
          Alcotest.test_case "forbidden" `Quick test_automaton_forbidden;
          Alcotest.test_case "isomorphic negative" `Quick test_isomorphic_negative;
          Alcotest.test_case "restrict" `Quick test_restrict_states;
          Alcotest.test_case "restrict drops initial" `Quick
            test_restrict_drop_initial;
        ] );
      ( "compose",
        [
          Alcotest.test_case "interleaving" `Quick test_compose_interleaving;
          Alcotest.test_case "synchronization" `Quick test_compose_synchronization;
          Alcotest.test_case "marking" `Quick test_compose_marking;
          Alcotest.test_case "alphabet union" `Quick test_compose_alphabet_union;
          Alcotest.test_case "compose all" `Quick test_compose_all;
          Alcotest.test_case "reachable only" `Quick test_compose_reachable_only;
          Alcotest.test_case "nested naming regression" `Quick
            test_compose_nested_naming;
          qc prop_compose_commutative_language;
          qc prop_compose_associative;
        ] );
      ( "reach",
        [
          Alcotest.test_case "accessible" `Quick test_accessible;
          Alcotest.test_case "coaccessible" `Quick test_coaccessible;
          Alcotest.test_case "trim" `Quick test_trim;
        ] );
      ( "verify",
        [
          Alcotest.test_case "nonblocking positive" `Quick
            test_nonblocking_positive;
          Alcotest.test_case "nonblocking negative" `Quick
            test_nonblocking_negative;
          Alcotest.test_case "controllable positive" `Quick
            test_controllable_positive;
          Alcotest.test_case "controllable negative" `Quick
            test_controllable_negative;
          Alcotest.test_case "closed loop" `Quick test_closed_loop;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "small factory" `Quick test_supcon_small_factory;
          Alcotest.test_case "forbidden state" `Quick test_supcon_forbidden_state;
          Alcotest.test_case "empty supervisor" `Quick test_supcon_empty;
          Alcotest.test_case "loose spec permissive" `Quick
            test_supcon_maximally_permissive_when_spec_loose;
          qc prop_supcon_sound;
          qc prop_supcon_language_within_plant;
        ] );
      ( "indexed-core",
        [
          Alcotest.test_case "alphabet conflict reported at entry" `Quick
            test_alphabet_conflict_reported_at_entry;
          Alcotest.test_case "compose matches string reference" `Quick
            test_indexed_compose_matches_reference;
          Alcotest.test_case "restrict_indices matches reference" `Quick
            test_restrict_indices_matches_reference;
          Alcotest.test_case "CSR builder matches tuple-sort reference" `Quick
            test_csr_matches_reference;
          Alcotest.test_case "restrict of a fully kept automaton is itself"
            `Quick test_restrict_identity;
          Alcotest.test_case "names forced from two domains" `Quick
            test_names_from_two_domains;
          Alcotest.test_case "index API round trip" `Quick
            test_index_api_roundtrip;
          Alcotest.test_case "structural digest deterministic" `Quick
            test_digest_deterministic;
          Alcotest.test_case "structural digest injective on single edits"
            `Quick test_digest_injective;
          Alcotest.test_case "unescape_state_name" `Quick
            test_unescape_state_name;
          Alcotest.test_case "names written from components" `Quick
            test_names_written_from_components;
          qc prop_inttbl_first_seen;
          Alcotest.test_case "state table over 100k keys" `Quick
            test_inttbl_large;
        ] );
      ( "parallel-synthesis",
        [
          Alcotest.test_case "supcon matches the oracle (60 seeds)" `Quick
            test_supcon_matches_oracle;
          Alcotest.test_case "supcon on the cluster family" `Quick
            test_supcon_cluster_family;
          Alcotest.test_case "k=6 plant and supervisor pinned" `Quick
            test_cluster_family_k6_pinned;
          Alcotest.test_case "supcon_modular matches monolithic" `Quick
            test_supcon_modular_matches_monolithic;
          Alcotest.test_case "supcon_modular wide family at k = 10 and 11"
            `Quick test_supcon_modular_wide_family;
          Alcotest.test_case "synthesis bytes per transition, k=8 cap=7"
            `Quick test_synthesis_alloc_budgets;
          Alcotest.test_case "digest streamed across its buffer" `Quick
            test_digest_across_buffer;
          Alcotest.test_case "32-bit word store" `Quick test_wordvec_words;
          Alcotest.test_case "digest allocation sized by the alphabet" `Quick
            test_digest_alloc_by_alphabet;
          Alcotest.test_case "supcon empty supervisor" `Quick
            test_engine_empty;
          Alcotest.test_case "spec-private uncontrollable event" `Quick
            test_supcon_spec_private_uncontrollable;
          Alcotest.test_case "balanced Compose.all matches fold" `Quick
            test_compose_all_matches_fold;
        ] );
      ( "dot",
        [
          Alcotest.test_case "dot output" `Quick test_dot_output;
          Alcotest.test_case "forbidden rendering" `Quick
            test_dot_forbidden_rendering;
          Alcotest.test_case "unescaped labels" `Quick test_dot_unescaped_labels;
        ] );
    ]
