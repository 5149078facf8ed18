(* Reference supervisor synthesis for the differential tests: the
   original sequential engine (plant × spec product built by one BFS,
   then the uncontrollable and blocking passes iterated to a fixpoint),
   kept here in compact form.  It shares no code with [Synthesis.supcon]
   above the CSR constructor, so pinning the library engine to it
   compares two independent implementations.

   Product states are numbered in BFS discovery order with per-state
   emissions in the intrinsic order (plant row in event-id order, then
   the spec's private events), which is the numbering the library engine
   canonicalizes to — so results must match to the structural digest. *)

open Spectr_automata

let supcon ~plant ~spec =
  let sigma_g = Automaton.alphabet plant and sigma_e = Automaton.alphabet spec in
  let alphabet =
    Event.merge_alphabets
      ~context:
        (Printf.sprintf "Synthesis.supcon(%s,%s)" (Automaton.name plant)
           (Automaton.name spec))
      sigma_g sigma_e
  in
  (* [in_e]/[ctrl] take plant-row ids, [in_g] spec-row ids. *)
  let in_g e = Event.Set.mem (Automaton.event_of_id spec e) sigma_g in
  let in_e e = Event.Set.mem (Automaton.event_of_id plant e) sigma_e in
  let ctrl e = Event.is_controllable (Automaton.event_of_id plant e) in
  (* --- reachable product, with escapes and uncontrollable edges --- *)
  let seen = Hashtbl.create 1024 and pairs = ref [] and count = ref 0 in
  let queue = Queue.create () in
  let trans = ref [] and esc = Hashtbl.create 16 and unc = ref [] in
  let visit ig ie =
    match Hashtbl.find_opt seen (ig, ie) with
    | Some i -> i
    | None ->
        let i = !count in
        incr count;
        Hashtbl.add seen (ig, ie) i;
        pairs := (ig, ie) :: !pairs;
        Queue.push (i, ig, ie) queue;
        i
  in
  ignore (visit (Automaton.initial_index plant) (Automaton.initial_index spec));
  while not (Queue.is_empty queue) do
    let i, ig, ie = Queue.pop queue in
    let emit ~by_plant eid j =
      trans := (i, eid, j) :: !trans;
      if by_plant && not (ctrl eid) then unc := (i, j) :: !unc
    in
    Automaton.iter_row plant ig (fun eid jg ->
        if in_e eid then (
          match Automaton.step_index spec ie eid with
          | Some je -> emit ~by_plant:true eid (visit jg je)
          | None -> if not (ctrl eid) then Hashtbl.replace esc i ())
        else emit ~by_plant:true eid (visit jg ie));
    Automaton.iter_row spec ie (fun eid je ->
        if not (in_g eid) then emit ~by_plant:false eid (visit ig je))
  done;
  let n = !count in
  let pg = Array.make n 0 and pe = Array.make n 0 in
  List.iteri
    (fun k (ig, ie) ->
      pg.(n - 1 - k) <- ig;
      pe.(n - 1 - k) <- ie)
    !pairs;
  let trans = Array.of_list (List.rev !trans) in
  let adj pairs =
    let a = Array.make n [] in
    List.iter (fun (x, y) -> a.(x) <- y :: a.(x)) pairs;
    a
  in
  let pred = adj (Array.to_list (Array.map (fun (s, _, d) -> (d, s)) trans)) in
  let unc_succ = adj !unc in
  let unc_pred = adj (List.map (fun (s, d) -> (d, s)) !unc) in
  let marked =
    Array.init n (fun i ->
        Automaton.is_marked_index plant pg.(i)
        && Automaton.is_marked_index spec pe.(i))
  in
  (* --- fixpoint -------------------------------------------------- *)
  let good =
    Array.init n (fun i ->
        not
          (Automaton.is_forbidden_index plant pg.(i)
          || Automaton.is_forbidden_index spec pe.(i)))
  in
  let removed_forbidden =
    Array.fold_left (fun c g -> if g then c else c + 1) 0 good
  in
  let uncontrollable_pass () =
    let removed = ref 0 in
    let rec kill i =
      if good.(i) then begin
        good.(i) <- false;
        incr removed;
        List.iter kill unc_pred.(i)
      end
    in
    for i = 0 to n - 1 do
      if
        good.(i)
        && (Hashtbl.mem esc i || List.exists (fun j -> not good.(j)) unc_succ.(i))
      then kill i
    done;
    !removed
  in
  let blocking_pass () =
    let coacc = Array.make n false in
    let rec reach i =
      if good.(i) && not coacc.(i) then begin
        coacc.(i) <- true;
        List.iter reach pred.(i)
      end
    in
    for i = 0 to n - 1 do
      if marked.(i) then reach i
    done;
    let removed = ref 0 in
    for i = 0 to n - 1 do
      if good.(i) && not coacc.(i) then begin
        good.(i) <- false;
        incr removed
      end
    done;
    !removed
  in
  let rec fixpoint iterations unc_total blk_total =
    let u = uncontrollable_pass () in
    let b = blocking_pass () in
    if u = 0 && b = 0 then (iterations + 1, unc_total, blk_total)
    else fixpoint (iterations + 1) (unc_total + u) (blk_total + b)
  in
  let iterations, removed_uncontrollable, removed_blocking = fixpoint 0 0 0 in
  let stats =
    {
      Synthesis.product_states = n;
      removed_uncontrollable;
      removed_blocking;
      removed_forbidden;
      iterations;
    }
  in
  if not good.(0) then Error Synthesis.Empty_supervisor
  else begin
    let new_of_old = Array.make n (-1) and old_of_new = ref [] and m = ref 0 in
    for i = 0 to n - 1 do
      if good.(i) then begin
        new_of_old.(i) <- !m;
        old_of_new := i :: !old_of_new;
        incr m
      end
    done;
    let old_of_new = Array.of_list (List.rev !old_of_new) in
    (* CSR rows: the kept transitions renumbered, sorted by (source,
       event id), with each source's row offset counted. *)
    let kept =
      List.filter (fun (s, _, d) -> good.(s) && good.(d)) (Array.to_list trans)
      |> List.map (fun (s, e, d) -> (new_of_old.(s), e, new_of_old.(d)))
      |> List.sort compare |> Array.of_list
    in
    let row = Array.make (!m + 1) 0 in
    Array.iter (fun (s, _, _) -> row.(s + 1) <- row.(s + 1) + 1) kept;
    for i = 0 to !m - 1 do
      row.(i + 1) <- row.(i + 1) + row.(i)
    done;
    let names =
      Automaton.Names
        (Array.map
           (fun old ->
             Names_oracle.join
               [
                 Automaton.state_of_index plant pg.(old);
                 Automaton.state_of_index spec pe.(old);
               ])
           old_of_new)
    in
    let sup =
      Automaton.of_csr
        ~name:("sup(" ^ Automaton.name plant ^ "," ^ Automaton.name spec ^ ")")
        ~names ~alphabet ~initial:0
        ~marked:(Array.map (fun old -> marked.(old)) old_of_new)
        ~forbidden:(Array.make !m false) ~row
        ~event:(Array.map (fun (_, e, _) -> e) kept)
        ~target:(Array.map (fun (_, _, d) -> d) kept)
    in
    Ok (Reach.accessible sup, stats)
  end
