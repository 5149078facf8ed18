(* Reference state naming for the tests, built only on the public
   name-based API and sharing no code with [Automaton]'s naming.

   - [join] is the escaping flat join product names were once built
     with: each component name escaped once ('.' and '\' get a
     backslash), joined with '.'.  Applied to names that are themselves
     joins, it escapes them once more per level of nesting.
   - [image] rebuilds [Automaton.structural_digest]'s byte image from
     [Automaton.states], the alphabet and the CSR rows, and [digest]
     hashes it. *)

open Spectr_automata

let escape s =
  let b = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      if c = '.' || c = '\\' then Buffer.add_char b '\\';
      Buffer.add_char b c)
    s;
  Buffer.contents b

let join parts = String.concat "." (List.map escape parts)

let image a =
  let b = Buffer.create 1024 in
  let int i =
    let x = Bytes.create 8 in
    Bytes.set_int64_le x 0 (Int64.of_int i);
    Buffer.add_bytes b x
  in
  let add s =
    Buffer.add_string b (string_of_int (String.length s));
    Buffer.add_char b ':';
    Buffer.add_string b s
  in
  let n = Automaton.num_states a in
  add (Automaton.name a);
  int n;
  int (Automaton.initial_index a);
  List.iter add (Automaton.states a);
  let events = Event.Set.elements (Automaton.alphabet a) in
  int (List.length events);
  List.iter
    (fun e ->
      add (Event.name e);
      Buffer.add_char b (if Event.is_controllable e then 'c' else 'u'))
    events;
  let rank = Hashtbl.create 16 in
  List.iteri (fun r e -> Hashtbl.add rank (Event.id e) r) events;
  let row, ev, dst = Automaton.csr a in
  Array.iter int row;
  Array.iteri
    (fun k e ->
      int (Hashtbl.find rank e);
      int dst.(k))
    ev;
  for i = 0 to n - 1 do
    Buffer.add_char b (if Automaton.is_marked_index a i then '1' else '0')
  done;
  for i = 0 to n - 1 do
    Buffer.add_char b (if Automaton.is_forbidden_index a i then '1' else '0')
  done;
  Buffer.contents b

let digest a = Digest.to_hex (Digest.string (image a))
