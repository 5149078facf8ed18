(* The reachable synchronous product is the synthesis engine's
   exploration on [[| a; b |]], extracted with nothing pruned: one
   product walk serves composition and synthesis alike (see
   {!Synthesis.product}). *)

let pair a b =
  Synthesis.product
    ~context:
      (Printf.sprintf "Compose.pair(%s,%s)" (Automaton.name a)
         (Automaton.name b))
    ~name:(Automaton.name a ^ "||" ^ Automaton.name b)
    [| a; b |]

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
