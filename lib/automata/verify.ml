type blocking_witness = { state : string }

let nonblocking a =
  let acc = Reach.accessible_indices a in
  let coacc = Reach.coaccessible_indices a in
  let witness = ref None in
  Array.iteri
    (fun i reachable ->
      if reachable && (not coacc.(i)) && !witness = None then
        witness := Some { state = Automaton.state_of_index a i })
    acc;
  match !witness with None -> Ok () | Some w -> Error w

let is_nonblocking a = Result.is_ok (nonblocking a)

type controllability_witness = {
  supervisor_state : string;
  plant_state : string;
  event : Event.t;
}

(* Walk the reachable product of supervisor and plant on indices; at each
   pair check that every uncontrollable plant-enabled event (that the
   supervisor's alphabet contains) is supervisor-enabled.  Kept apart
   from the product engine ({!Synthesis}), as the independent check on
   what it produces; like the engine, it iterates CSR rows instead of
   the union alphabet, so only enabled events are ever examined; names
   are decoded only for the witness on the error path. *)
let controllable ~plant ~supervisor =
  let sigma_s = Automaton.alphabet supervisor in
  let sigma_g = Automaton.alphabet plant in
  let alphabet =
    Event.merge_alphabets
      ~context:
        (Printf.sprintf "Verify.controllable(%s,%s)" (Automaton.name plant)
           (Automaton.name supervisor))
      sigma_s sigma_g
  in
  let max_id = Event.Set.fold (fun e m -> max m (Event.id e)) alphabet (-1) in
  let in_s = Array.make (max_id + 1) false in
  let in_g = Array.make (max_id + 1) false in
  let ctrl = Array.make (max_id + 1) true in
  Event.Set.iter (fun e -> in_s.(Event.id e) <- true) sigma_s;
  Event.Set.iter (fun e -> in_g.(Event.id e) <- true) sigma_g;
  Event.Set.iter
    (fun e -> ctrl.(Event.id e) <- Event.is_controllable e)
    alphabet;
  let ng = Automaton.num_states plant in
  let grow, gev, gdst = Automaton.csr plant in
  let srow, sev, sdst = Automaton.csr supervisor in
  (* The pair keys [is * ng + ig] in discovery order double as the BFS
     queue. *)
  let seen = Inttbl.create () in
  let visit is_ ig = ignore (Inttbl.intern seen ((is_ * ng) + ig) : int) in
  visit (Automaton.initial_index supervisor) (Automaton.initial_index plant);
  let witness = ref None in
  let head = ref 0 in
  (try
     while !head < Inttbl.length seen do
       let key = Inttbl.key seen !head in
       let is_ = key / ng in
       let ig = key - (is_ * ng) in
       incr head;
       for k = grow.(ig) to grow.(ig + 1) - 1 do
         let eid = gev.(k) and jg = gdst.(k) in
         if in_s.(eid) then (
           match Automaton.step_index_raw supervisor is_ eid with
           | -1 ->
               (* Plant enables it, supervisor's alphabet contains it,
                  supervisor disables it: a violation iff
                  uncontrollable. *)
               if not ctrl.(eid) then begin
                 witness :=
                   Some
                     {
                       supervisor_state =
                         Automaton.state_of_index supervisor is_;
                       plant_state = Automaton.state_of_index plant ig;
                       event = Automaton.event_of_id plant eid;
                     };
                 raise Exit
               end
           | js -> visit js jg)
         else visit is_ jg
       done;
       for k = srow.(is_) to srow.(is_ + 1) - 1 do
         if not in_g.(sev.(k)) then visit sdst.(k) ig
       done
     done
   with Exit -> ());
  match !witness with None -> Ok () | Some w -> Error w

let is_controllable ~plant ~supervisor =
  Result.is_ok (controllable ~plant ~supervisor)

let closed_loop ~plant ~supervisor = Compose.pair supervisor plant
