(* Reachable synchronous product, computed entirely in index space.
   δ((qa,qb), e) is the standard definition — both step on shared events,
   one steps on a private event, undefined otherwise — but instead of
   iterating the union alphabet per state (|Σ| lookups, most missing), we
   walk each component's CSR row: only events that are actually enabled
   somewhere are ever touched, and shared-event synchronization is one
   binary search in the other component's row.  Product state names are
   never materialized here; [Automaton.of_csr] builds them lazily from
   the (ia, ib) pair map if anyone asks. *)

let pair a b =
  let sigma_a = Automaton.alphabet a and sigma_b = Automaton.alphabet b in
  let alphabet =
    Event.merge_alphabets
      ~context:
        (Printf.sprintf "Compose.pair(%s,%s)" (Automaton.name a)
           (Automaton.name b))
      sigma_a sigma_b
  in
  let max_id = Event.Set.fold (fun e m -> max m (Event.id e)) alphabet (-1) in
  let in_a = Array.make (max_id + 1) false in
  let in_b = Array.make (max_id + 1) false in
  Event.Set.iter (fun e -> in_a.(Event.id e) <- true) sigma_a;
  Event.Set.iter (fun e -> in_b.(Event.id e) <- true) sigma_b;
  let nb = Automaton.num_states b in
  let arow, aev, adst = Automaton.csr a and brow, bev, bdst = Automaton.csr b in
  let seen = Inttbl.create () in
  (* Product state i is (pa.(i), pb.(i)); states are numbered in
     discovery order, so the two vectors are also the BFS queue. *)
  let pa = Intvec.create () and pb = Intvec.create () in
  (* Each state's transitions are emitted contiguously, state by state:
     [starts] records where each row begins, and ends with the
     transition count — the CSR row offsets. *)
  let starts = Intvec.create () in
  let tev = Intvec.create () and tdst = Intvec.create () in
  let visit ia ib =
    let i = Intvec.length pa in
    match Inttbl.put seen ((ia * nb) + ib) i with
    | -1 ->
        Intvec.push pa ia;
        Intvec.push pb ib;
        i
    | j -> j
  in
  ignore (visit (Automaton.initial_index a) (Automaton.initial_index b));
  let head = ref 0 in
  while !head < Intvec.length pa do
    let i = !head in
    incr head;
    let ia = Intvec.get pa i and ib = Intvec.get pb i in
    Intvec.push starts (Intvec.length tev);
    for k = arow.(ia) to arow.(ia + 1) - 1 do
      let eid = aev.(k) in
      let jb = if in_b.(eid) then Automaton.step_index_raw b ib eid else ib in
      if jb >= 0 then begin
        Intvec.push tev eid;
        Intvec.push tdst (visit adst.(k) jb)
      end
    done;
    for k = brow.(ib) to brow.(ib + 1) - 1 do
      let eid = bev.(k) in
      if not in_a.(eid) then begin
        Intvec.push tev eid;
        Intvec.push tdst (visit ia bdst.(k))
      end
    done;
    (* The row is two sorted runs, a's events then b's private ones:
       insertion-sort it by event id in place. *)
    let ev = Intvec.data tev and dst = Intvec.data tdst in
    let lo = Intvec.get starts i in
    for k = lo + 1 to Intvec.length tev - 1 do
      let e = ev.(k) and d = dst.(k) in
      let j = ref (k - 1) in
      while !j >= lo && ev.(!j) > e do
        ev.(!j + 1) <- ev.(!j);
        dst.(!j + 1) <- dst.(!j);
        decr j
      done;
      ev.(!j + 1) <- e;
      dst.(!j + 1) <- d
    done
  done;
  let n = Intvec.length pa in
  Intvec.push starts (Intvec.length tev);
  let pa = Intvec.to_array pa and pb = Intvec.to_array pb in
  let marked =
    Array.init n (fun i ->
        Automaton.is_marked_index a pa.(i) && Automaton.is_marked_index b pb.(i))
  in
  let forbidden =
    Array.init n (fun i ->
        Automaton.is_forbidden_index a pa.(i)
        || Automaton.is_forbidden_index b pb.(i))
  in
  let names () =
    (* Escaping join: composing an automaton whose state names already
       contain dots (e.g. a synthesized supervisor fed back as a plant)
       must not collide distinct pairs. *)
    Automaton.product_state_names n 2 (fun i c ->
        if c = 0 then Automaton.state_of_index a pa.(i)
        else Automaton.state_of_index b pb.(i))
  in
  Automaton.of_csr
    ~name:(Automaton.name a ^ "||" ^ Automaton.name b)
    ~names ~alphabet ~initial:0 ~marked ~forbidden
    ~row:(Intvec.to_array starts) ~event:(Intvec.to_array tev)
    ~target:(Intvec.to_array tdst)

(* n-ary composition as a size-ordered balanced tree, not a left fold.
   A fold produces the maximally skewed chain ((a‖b)‖c)‖…, whose
   intermediate products can dwarf the final one — with k equal-sized
   private-event components the chain materializes Θ(n^(k-1)) states on
   the way to an n^k product, every one of them twice (once as a product,
   once as the left operand re-walked by the next pair).  Pairing
   adjacent components in rounds keeps every intermediate near the
   geometric mean, and re-sorting by state count each round keeps the
   big partial products from meeting until the end.  The result is the
   same language and an isomorphic automaton (‖ is associative and
   commutative up to state renaming); only the composite state-name
   nesting and the digest differ from the fold's. *)
let all = function
  | [] -> invalid_arg "Compose.all: empty list"
  | [ a ] -> a
  | comps ->
      let by_size =
        List.stable_sort
          (fun x y ->
            Int.compare (Automaton.num_states x) (Automaton.num_states y))
      in
      let rec pairwise = function
        | a :: b :: rest -> pair a b :: pairwise rest
        | tail -> tail
      in
      let rec rounds = function
        | [ a ] -> a
        | l -> rounds (pairwise (by_size l))
      in
      rounds comps
