(* Reachable synchronous product, computed entirely in index space.
   δ((qa,qb), e) is the standard definition — both step on shared events,
   one steps on a private event, undefined otherwise — but instead of
   iterating the union alphabet per state (|Σ| lookups, most missing), we
   walk each component's CSR row: only events that are actually enabled
   somewhere are ever touched, and shared-event synchronization is one
   binary search in the other component's row.  Product state names are
   never materialized here: the result names its states by the pair key
   [ia * nb + ib], and [Automaton] writes the strings if anyone asks. *)

let pair a b =
  let context =
    Printf.sprintf "Compose.pair(%s,%s)" (Automaton.name a) (Automaton.name b)
  in
  let sigma_a = Automaton.alphabet a and sigma_b = Automaton.alphabet b in
  let alphabet = Event.merge_alphabets ~context sigma_a sigma_b in
  let max_id = Event.Set.fold (fun e m -> max m (Event.id e)) alphabet (-1) in
  let in_a = Array.make (max_id + 1) false in
  let in_b = Array.make (max_id + 1) false in
  Event.Set.iter (fun e -> in_a.(Event.id e) <- true) sigma_a;
  Event.Set.iter (fun e -> in_b.(Event.id e) <- true) sigma_b;
  let nb = Automaton.num_states b in
  let arow, aev, adst = Automaton.csr a and brow, bev, bdst = Automaton.csr b in
  (* A transition is one int, [(event id lsl tbits) lor target]: packed
     ints order a row by event id. *)
  let tbits =
    let b = ref 62 in
    while max_id lsr (62 - !b) > 0 do
      decr b
    done;
    !b
  in
  let tmask = (1 lsl tbits) - 1 in
  (* Product state i is the pair key [ia * nb + ib] with index i; the
     keys, in discovery order, are also the BFS queue. *)
  let seen = Inttbl.create () in
  let visit ia ib =
    let j = Inttbl.intern seen ((ia * nb) + ib) in
    if j > tmask then
      invalid_arg (context ^ ": product exceeds the state index range");
    j
  in
  ignore (visit (Automaton.initial_index a) (Automaton.initial_index b));
  (* A state's row is two sorted runs, visited in this order: a's
     events into [ra], then b's private ones into [rb].  Merged, they are
     the row, appended to [tr]; [ends] records where each row ends — the
     CSR row offsets. *)
  let widest row =
    let m = ref 0 in
    for i = 0 to Array.length row - 2 do
      m := max !m (row.(i + 1) - row.(i))
    done;
    !m
  in
  let ra = Array.make (widest arow) 0 and rb = Array.make (widest brow) 0 in
  let ends = Intvec.create () and tr = Intvec.create () in
  let i = ref 0 in
  while !i < Inttbl.length seen do
    let key = Inttbl.key seen !i in
    let ia = key / nb in
    let ib = key - (ia * nb) in
    let la = ref 0 and lb = ref 0 in
    for k = arow.(ia) to arow.(ia + 1) - 1 do
      let eid = aev.(k) in
      let jb = if in_b.(eid) then Automaton.step_index_raw b ib eid else ib in
      if jb >= 0 then begin
        ra.(!la) <- (eid lsl tbits) lor visit adst.(k) jb;
        incr la
      end
    done;
    for k = brow.(ib) to brow.(ib + 1) - 1 do
      let eid = bev.(k) in
      if not in_a.(eid) then begin
        rb.(!lb) <- (eid lsl tbits) lor visit ia bdst.(k);
        incr lb
      end
    done;
    let x = ref 0 and y = ref 0 in
    while !x < !la || !y < !lb do
      if !y = !lb || (!x < !la && ra.(!x) < rb.(!y)) then begin
        Intvec.push tr ra.(!x);
        incr x
      end
      else begin
        Intvec.push tr rb.(!y);
        incr y
      end
    done;
    Intvec.push ends tr.len;
    incr i
  done;
  let n = Inttbl.length seen and t = Intvec.length tr in
  let row = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row.(i + 1) <- Intvec.get ends i
  done;
  let event = Array.make t 0 and target = Array.make t 0 in
  for k = 0 to t - 1 do
    let w = Intvec.get tr k in
    event.(k) <- w lsr tbits;
    target.(k) <- w land tmask
  done;
  let keys = Array.init n (Inttbl.key seen) in
  let marked = Array.make n false and forbidden = Array.make n false in
  Array.iteri
    (fun i key ->
      let ia = key / nb in
      let ib = key - (ia * nb) in
      marked.(i) <-
        Automaton.is_marked_index a ia && Automaton.is_marked_index b ib;
      forbidden.(i) <-
        Automaton.is_forbidden_index a ia || Automaton.is_forbidden_index b ib)
    keys;
  Automaton.of_csr
    ~name:(Automaton.name a ^ "||" ^ Automaton.name b)
    ~names:(Product ([| a; b |], keys))
    ~alphabet ~initial:0 ~marked ~forbidden ~row ~event ~target

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
