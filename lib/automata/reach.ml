(* Forward BFS straight over the CSR rows — the transition words are the
   adjacency structure, no per-state lists to build; an int array of
   size n is the queue. *)
let accessible_indices a =
  let n = Automaton.num_states a in
  let row, tr = Automaton.csr a in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let init = Automaton.initial_index a in
  seen.(init) <- true;
  queue.(0) <- init;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let i = queue.(!head) in
    incr head;
    for k = row.(i) to row.(i + 1) - 1 do
      let j = Automaton.tr_target tr.(k) in
      if not seen.(j) then begin
        seen.(j) <- true;
        queue.(!tail) <- j;
        incr tail
      end
    done
  done;
  seen

(* Backward traversal needs the reverse adjacency; counting-sort the
   transitions by destination into CSR form once. *)
let pred_csr a =
  let n = Automaton.num_states a in
  let arow, atr = Automaton.csr a in
  let row = Array.make (n + 1) 0 in
  for k = 0 to arow.(n) - 1 do
    let d = Automaton.tr_target atr.(k) in
    row.(d + 1) <- row.(d + 1) + 1
  done;
  for i = 0 to n - 1 do
    row.(i + 1) <- row.(i + 1) + row.(i)
  done;
  let src = Array.make row.(n) 0 in
  let cursor = Array.sub row 0 n in
  for s = 0 to n - 1 do
    for k = arow.(s) to arow.(s + 1) - 1 do
      let d = Automaton.tr_target atr.(k) in
      src.(cursor.(d)) <- s;
      cursor.(d) <- cursor.(d) + 1
    done
  done;
  (row, src)

let coaccessible_indices a =
  let n = Automaton.num_states a in
  let seen = Array.make n false in
  let stack = Array.make n 0 in
  let top = ref 0 in
  let row, src = pred_csr a in
  for i = 0 to n - 1 do
    if Automaton.is_marked_index a i then begin
      seen.(i) <- true;
      stack.(!top) <- i;
      incr top
    end
  done;
  while !top > 0 do
    decr top;
    let i = stack.(!top) in
    for k = row.(i) to row.(i + 1) - 1 do
      let j = src.(k) in
      if not seen.(j) then begin
        seen.(j) <- true;
        stack.(!top) <- j;
        incr top
      end
    done
  done;
  seen

let accessible a =
  match Automaton.restrict_indices a (accessible_indices a) with
  | Some a' -> a'
  | None -> assert false (* the initial state is always accessible *)

let is_trim a =
  let acc = accessible_indices a in
  let coacc = coaccessible_indices a in
  let ok = ref true in
  Array.iteri (fun i x -> if not (x && coacc.(i)) then ok := false) acc;
  !ok
