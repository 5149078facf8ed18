type blocking_witness = { state : string }

(* The walks read and write [Wordvec] words in place, through helpers
   inlined by attribute as {!Synthesis}'s are: across modules, under
   [-opaque], each access would be a call.  Every index is under its
   vector's counted length. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] cget (ch : Bytes.t array) i =
  Int32.to_int (get32 ch.(i lsr 15) ((i land 0x7fff) lsl 2)) land 0xffff_ffff

let[@inline] cset (ch : Bytes.t array) i x =
  set32 ch.(i lsr 15) ((i land 0x7fff) lsl 2) (Int32.of_int x)

(* Word [k] of an automaton's transitions ({!Automaton.csr}), every [k]
   within a row of it. *)
let[@inline] tword (b : Bytes.t) k =
  Int32.to_int (get32 b (k lsl 2)) land 0xffff_ffff

let[@inline] mem mask s = Bytes.get mask s <> '\000'

(* Flag [s] in [mask] and push it on [stack], whose height is [top]. *)
let[@inline] push stack top mask s =
  Bytes.set mask s '\001';
  cset stack !top s;
  incr top

(* Two depth-first walks over one stack of [n] words, each state pushed
   at most once and flagged in a byte mask: forward from the initial
   state over {!Automaton.csr}, then backward from the marked states
   over a predecessor CSR, counted in one pass over the transitions and
   filled in a second.  The witness is the lowest-indexed state the
   first walk reaches and the second does not. *)
let nonblocking a =
  let n = Automaton.num_states a in
  let row, tr = Automaton.csr a in
  let ebits = Automaton.rank_bits a in
  let fl = Automaton.flags a in
  let stack = (Wordvec.make n).chunks in
  let top = ref 0 in
  let acc = Bytes.make n '\000' in
  push stack top acc (Automaton.initial_index a);
  while !top > 0 do
    decr top;
    let s = cget stack !top in
    for k = row.(s) to row.(s + 1) - 1 do
      let d = tword tr k lsr ebits in
      if not (mem acc d) then push stack top acc d
    done
  done;
  (* [pr.(d)] first counts [d]'s predecessors, then holds its row's end,
     and is decremented down to its row's start as [src] is filled. *)
  let pr = (Wordvec.make (n + 1)).chunks in
  let nt = Automaton.num_transitions a in
  for k = 0 to nt - 1 do
    let d = tword tr k lsr ebits in
    cset pr d (cget pr d + 1)
  done;
  for j = 1 to n do
    cset pr j (cget pr j + cget pr (j - 1))
  done;
  let src = (Wordvec.make nt).chunks in
  for s = 0 to n - 1 do
    for k = row.(s) to row.(s + 1) - 1 do
      let d = tword tr k lsr ebits in
      let o = cget pr d - 1 in
      cset pr d o;
      cset src o s
    done
  done;
  let coacc = Bytes.make n '\000' in
  for s = 0 to n - 1 do
    (* Bit 0 of a flag byte: marked. *)
    if Char.code fl.[s] land 1 <> 0 then push stack top coacc s
  done;
  while !top > 0 do
    decr top;
    let d = cget stack !top in
    for k = cget pr d to cget pr (d + 1) - 1 do
      let s = cget src k in
      if not (mem coacc s) then push stack top coacc s
    done
  done;
  let i = ref 0 in
  while !i < n && ((not (mem acc !i)) || mem coacc !i) do
    incr i
  done;
  if !i = n then Ok () else Error { state = Automaton.state_of_index a !i }

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
  (* The union is not needed, only the merge's refusal of a name that
     is controllable on one side and uncontrollable on the other. *)
  ignore
    (Event.merge_alphabets
       ~context:
         (Printf.sprintf "Verify.controllable(%s,%s)" (Automaton.name plant)
            (Automaton.name supervisor))
       sigma_s sigma_g
      : Event.Set.t);
  (* Per plant event rank: its id, whether the supervisor's alphabet
     has it and whether it is controllable; per supervisor rank, whether
     the plant's alphabet has it. *)
  let gev = Automaton.events plant and sev = Automaton.events supervisor in
  let gid = Array.map Event.id gev in
  let g_in_s = Array.map (fun e -> Event.Set.mem e sigma_s) gev in
  let g_ctrl = Array.map Event.is_controllable gev in
  let s_in_g = Array.map (fun e -> Event.Set.mem e sigma_g) sev in
  let ng = Automaton.num_states plant in
  let grow, gtr = Automaton.csr plant in
  let srow, str = Automaton.csr supervisor in
  let gbits = Automaton.rank_bits plant
  and sbits = Automaton.rank_bits supervisor in
  let gmask = (1 lsl gbits) - 1 and smask = (1 lsl sbits) - 1 in
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
         let w = tword gtr k in
         let r = w land gmask and jg = w lsr gbits in
         if g_in_s.(r) then (
           match Automaton.step_index_raw supervisor is_ gid.(r) with
           | -1 ->
               (* Plant enables it, supervisor's alphabet contains it,
                  supervisor disables it: a violation iff
                  uncontrollable. *)
               if not g_ctrl.(r) then begin
                 witness :=
                   Some
                     {
                       supervisor_state =
                         Automaton.state_of_index supervisor is_;
                       plant_state = Automaton.state_of_index plant ig;
                       event = gev.(r);
                     };
                 raise Exit
               end
           | js -> visit js jg)
         else visit is_ jg
       done;
       for k = srow.(is_) to srow.(is_ + 1) - 1 do
         let w = tword str k in
         if not s_in_g.(w land smask) then visit (w lsr sbits) ig
       done
     done
   with Exit -> ());
  match !witness with None -> Ok () | Some w -> Error w

let is_controllable ~plant ~supervisor =
  Result.is_ok (controllable ~plant ~supervisor)

let closed_loop ~plant ~supervisor = Compose.pair supervisor plant
