type t = { id : int; name : string; controllable : bool }

(* Process-wide intern table: one value per (name, controllability) pair,
   ids dense in intern order.  Interning takes a mutex — automata are
   built from multiple domains by the bench pool — and a new event's id
   is the table size under that lock.  Decoding an id goes through the
   automaton that carries it ({!Automaton.event_of_id}), so there is no
   global id→event table to publish. *)

let mutex = Mutex.create ()
let table : (string * bool, t) Hashtbl.t = Hashtbl.create 64

let intern name controllable =
  Mutex.protect mutex (fun () ->
      let key = (name, controllable) in
      match Hashtbl.find_opt table key with
      | Some e -> e
      | None ->
          let e = { id = Hashtbl.length table; name; controllable } in
          Hashtbl.add table key e;
          e)

let controllable name = intern name true
let uncontrollable name = intern name false
let name e = e.name
let is_controllable e = e.controllable
let id e = e.id

let compare a b =
  if a.id = b.id then 0
  else
    let c = String.compare a.name b.name in
    if c <> 0 then c else Bool.compare a.controllable b.controllable

let equal a b = a.id = b.id

let pp ppf e =
  if e.controllable then Format.pp_print_string ppf e.name
  else Format.fprintf ppf "%s!" e.name

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)

let set_of_list l = Set.of_list l

(* Insertion-sorted as the set is walked: alphabets are small, and
   [Array.sort]'s fixed cost was a fifth of a 27-state composition. *)
let by_id s =
  let n = Set.cardinal s in
  if n = 0 then [||]
  else begin
    let a = Array.make n (Set.min_elt s) in
    let r = ref 0 in
    Set.iter
      (fun e ->
        let p = ref (!r - 1) in
        while !p >= 0 && a.(!p).id > e.id do
          a.(!p + 1) <- a.(!p);
          decr p
        done;
        a.(!p + 1) <- e;
        incr r)
      s;
    a
  end

let merge_alphabets ~context s1 s2 =
  let u = Set.union s1 s2 in
  (* The order is (name, controllability), so a name carried with both
     polarities yields two adjacent elements. *)
  let prev = ref None in
  Set.iter
    (fun e ->
      (match !prev with
      | Some p when String.equal p.name e.name ->
          invalid_arg
            (Printf.sprintf
               "%s: event %S is uncontrollable in one alphabet but \
                controllable in the other"
               context e.name)
      | _ -> ());
      prev := Some e)
    u;
  u
