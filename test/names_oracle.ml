(* Reference state naming for the tests, built only on the public
   name-based API and sharing no code with [Automaton]'s naming.

   - [join] is the escaping flat join product names were once built
     with: each component name escaped once ('.' and '\' get a
     backslash), joined with '.'.  Applied to names that are themselves
     joins, it escapes them once more per level of nesting.
   - [image] rebuilds the bytes [Automaton.structural_digest] streams
     through MD5, whole, from [Automaton.states], the alphabet and the
     CSR rows, and [digest] hashes it.
   - [words] and [word] write and read [Automaton.csr]'s 32-bit
     transition words from the layout's description alone. *)

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
  Array.iter int (fst (Automaton.csr a));
  for s = 0 to Automaton.num_states a - 1 do
    Automaton.iter_row a s (fun eid d ->
        int (Hashtbl.find rank eid);
        int d)
  done;
  let fl = Automaton.flags a in
  List.iter
    (fun bit ->
      String.iter
        (fun f -> Buffer.add_char b (if Char.code f land bit <> 0 then '1' else '0'))
        fl)
    [ 1; 2 ];
  Buffer.contents b

let digest a = Digest.to_hex (Digest.string (image a))

(* The rank width of an alphabet and its ids by rank: a word is
   [(target lsl width) lor rank], [rank] the event's position among the
   ids ascending, [width] the least that holds every rank. *)
let layout alphabet =
  let ids =
    Array.of_list
      (List.sort compare (List.map Event.id (Event.Set.elements alphabet)))
  in
  let b = ref 0 in
  while 1 lsl !b < Array.length ids do
    incr b
  done;
  (!b, ids)

(* The words of [(event id, target)] pairs, 4 native-endian bytes each. *)
let words alphabet pairs =
  let b, ids = layout alphabet in
  let rank eid =
    let r = ref 0 in
    while ids.(!r) <> eid do
      incr r
    done;
    !r
  in
  let buf = Bytes.create (4 * Array.length pairs) in
  Array.iteri
    (fun k (eid, d) ->
      Bytes.set_int32_ne buf (4 * k) (Int32.of_int ((d lsl b) lor rank eid)))
    pairs;
  buf

(* Word [k] of [tr] as its (event id, target) pair. *)
let word alphabet tr k =
  let b, ids = layout alphabet in
  let w = Int32.to_int (Bytes.get_int32_ne tr (4 * k)) land 0xffff_ffff in
  (ids.(w land ((1 lsl b) - 1)), w lsr b)
