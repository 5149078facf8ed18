type transition = { src : string; event : Event.t; dst : string }

(* A compute-once cell any number of domains may force at once — a
   [Lazy.t] forced from two domains together raises
   [CamlinternalLazy.Undefined].  Racing domains may each run the pure
   [f]; the first result published wins, and [f] is dropped with it. *)
module Once = struct
  type 'a state = Pending of (unit -> 'a) | Done of 'a
  type 'a t = 'a state Atomic.t

  let make f = Atomic.make (Pending f)
  let of_val v = Atomic.make (Done v)

  let force t =
    match Atomic.get t with
    | Done v -> v
    | Pending f as pending -> (
        let v = f () in
        if Atomic.compare_and_set t pending (Done v) then v
        else match Atomic.get t with Done won -> won | Pending _ -> v)
end

(* --- state names -------------------------------------------------------- *)

(* Escape '.' and '\' so that joining component names with '.' is
   unambiguous: the separator is the only unescaped dot, so distinct
   pairs like ("a.b","c") and ("a","b.c") can never collide.  Names
   without dots or backslashes — the common case — pass through
   untouched. *)
let needs_escape s = String.exists (fun c -> c = '.' || c = '\\') s

let escape s =
  if not (needs_escape s) then s
  else begin
    let b = Buffer.create (2 * String.length s) in
    String.iter
      (fun c ->
        if c = '.' || c = '\\' then Buffer.add_char b '\\';
        Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let rec escape_n d s = if d = 0 then s else escape_n (d - 1) (escape s)

(* How an automaton's states are named.  [Leaves] holds the names
   outright.  [Prod] names state [i] by its components: the mixed-radix
   digits of [keys.(i)] (radix [radix.(c)], component 0 most
   significant) index the parts, and the name is the parts' names, each
   escaped once, joined with '.'.  A product keeps only its parts'
   naming, not their transition structure. *)
type naming =
  | Leaves of string array
  | Prod of { parts : naming array; radix : int array; keys : int array }

(* A naming compiled for one walk over its states.  Escaping is a
   per-character map, so escaping a join escapes each piece: a part
   nested at depth d is its leaf names escaped d times, pre-escaped
   here once per leaf, and a depth-d separator is 2^d - 1 backslashes
   and a dot.  [idx] is the scratch a product decodes a key into; a
   writer is built per walk, so no two walks share it. *)
type writer =
  | W_leaf of string array
  | W_prod of {
      wparts : writer array;
      wradix : int array;
      wkeys : int array;
      sep : string;
      idx : int array;
    }

let rec writer d = function
  | Leaves a -> W_leaf (if d = 0 then a else Array.map (escape_n d) a)
  | Prod p ->
      W_prod
        {
          wparts = Array.map (writer (d + 1)) p.parts;
          wradix = p.radix;
          wkeys = p.keys;
          sep = escape_n d ".";
          idx = Array.make (Array.length p.parts) 0;
        }

(* The length of state [i]'s name.  It decodes [i]'s key, one division
   per component, into every product node's [idx] on the way down, for
   the [write_decoded] that follows. *)
let rec name_length w i =
  match w with
  | W_leaf a -> String.length a.(i)
  | W_prod p ->
      let nc = Array.length p.wparts in
      let k = ref p.wkeys.(i) in
      for c = nc - 1 downto 1 do
        let r = p.wradix.(c) in
        let q = !k / r in
        p.idx.(c) <- !k - (q * r);
        k := q
      done;
      p.idx.(0) <- !k;
      let l = ref ((nc - 1) * String.length p.sep) in
      for c = 0 to nc - 1 do
        l := !l + name_length p.wparts.(c) p.idx.(c)
      done;
      !l

(* The longest name [w] writes, read off its leaves. *)
let rec max_name_length = function
  | W_leaf a -> Array.fold_left (fun m s -> max m (String.length s)) 0 a
  | W_prod p ->
      Array.fold_left
        (fun m w -> m + max_name_length w)
        ((Array.length p.wparts - 1) * String.length p.sep)
        p.wparts

(* Write the name [name_length w i] just measured at [p] in [b]; the
   next position. *)
let rec write_decoded w i b p =
  match w with
  | W_leaf a ->
      let s = a.(i) in
      Bytes.blit_string s 0 b p (String.length s);
      p + String.length s
  | W_prod pr ->
      let p = ref p in
      for c = 0 to Array.length pr.wparts - 1 do
        if c > 0 then begin
          Bytes.blit_string pr.sep 0 b !p (String.length pr.sep);
          p := !p + String.length pr.sep
        end;
        p := write_decoded pr.wparts.(c) pr.idx.(c) b !p
      done;
      !p

(* Index-native core: δ is CSR — [row] holds per-state offsets into
   [tr], a [Bytes.t] of native-endian 32-bit words, one per transition,
   [(target lsl ebits) lor rank]: [rank] is the event's index in
   [ids], the alphabet's event ids ascending, and [ebits] the least
   width that holds every rank.  A row is sorted by rank (so by event
   id) and a lookup is a binary search with zero hashing.  Names are a
   boundary concern: a product describes them by [naming], and the name
   table (and the name→index table derived from it) is built on first
   use, so algorithm outputs built with [of_csr] never materialize names
   unless a name-based accessor is actually used. *)
type t = {
  name : string;
  n : int;
  naming : naming;
  names : string array Once.t;
  index : (string, int) Hashtbl.t Once.t;
  alphabet : Event.Set.t;
  events : Event.t array; (* the alphabet by rank: ascending id *)
  ids : int array; (* [ids.(r)] is [Event.id events.(r)] *)
  ebits : int;
  row : int array; (* length n+1 *)
  tr : Bytes.t; (* transition words, sorted by rank within each row *)
  initial : int;
  flags : string; (* one byte per state, its marked and forbidden bits *)
  mutable digest : string option; (* memoized structural_digest *)
}

type names = Names of string array | Product of t array * int array

let name a = a.name
let alphabet a = a.alphabet
let num_states a = a.n
let num_transitions a = Bytes.length a.tr lsr 2
let states a = Array.to_list (Once.force a.names)
let initial a = (Once.force a.names).(a.initial)
let initial_index a = a.initial

let index_of_state a s =
  match Hashtbl.find_opt (Once.force a.index) s with
  | Some i -> i
  | None ->
      invalid_arg (Printf.sprintf "Automaton %s: unknown state %S" a.name s)

let state_of_index a i =
  if i < 0 || i >= a.n then
    invalid_arg (Printf.sprintf "Automaton %s: index %d out of range" a.name i);
  (Once.force a.names).(i)

let mem_state a s = Hashtbl.mem (Once.force a.index) s

(* A state's flag byte: the two bits the synthesis engine's flags word
   uses for them. *)
let flag_marked = 1
let flag_forbidden = 2
let[@inline] has a i bit = Char.code (String.unsafe_get a.flags i) land bit <> 0
let is_marked a s = has a (index_of_state a s) flag_marked
let is_forbidden a s = has a (index_of_state a s) flag_forbidden
let marked a = List.filteri (fun i _ -> has a i flag_marked) (states a)
let forbidden a = List.filteri (fun i _ -> has a i flag_forbidden) (states a)
let flags a = a.flags

(* The rank of the event with id [eid] in [ids], or -1 when it is not
   in the alphabet. *)
let rank_of_id (ids : int array) eid =
  let lo = ref 0 and hi = ref (Array.length ids) and res = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let e = Array.unsafe_get ids mid in
    if e = eid then begin
      res := mid;
      lo := !hi
    end
    else if e < eid then lo := mid + 1
    else hi := mid
  done;
  !res

let event_of_id a eid =
  match rank_of_id a.ids eid with
  | -1 ->
      invalid_arg
        (Printf.sprintf "Automaton %s: event id %d not in the alphabet" a.name
           eid)
  | r -> a.events.(r)

(* A transition word, read and written in place.  Every word index is
   under [num_transitions], which [of_naming] checked against the row
   table, so the access is unchecked. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] word tr k = Int32.to_int (get32 tr (k lsl 2)) land 0xffff_ffff
let[@inline] set_word tr k w = set32 tr (k lsl 2) (Int32.of_int w)

(* The rank width of an alphabet of [sigma] events: the least [b] with
   [2^b >= sigma]. *)
let bits_for sigma =
  let b = ref 0 in
  while 1 lsl !b < sigma do
    incr b
  done;
  !b

let events a = a.events
let rank_bits a = a.ebits

(* A while-loop, not a local [let rec]: a recursive helper would close
   over [a] and [eid] and allocate a closure per call, which the
   supervisor tick path cannot afford.  The search compares event ids,
   read through the word's rank, so a caller never maps an id to a
   rank. *)
let step_index_raw a i eid =
  let tr = a.tr and ids = a.ids and ebits = a.ebits in
  let emask = (1 lsl ebits) - 1 in
  let lo = ref a.row.(i) in
  let hi = ref a.row.(i + 1) in
  let res = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let w = word tr mid in
    let e = Array.unsafe_get ids (w land emask) in
    if e = eid then begin
      res := w lsr ebits;
      lo := !hi
    end
    else if e < eid then lo := mid + 1
    else hi := mid
  done;
  !res

let step_index a i eid =
  match step_index_raw a i eid with -1 -> None | d -> Some d

let iter_row a i f =
  let emask = (1 lsl a.ebits) - 1 in
  for k = a.row.(i) to a.row.(i + 1) - 1 do
    let w = word a.tr k in
    f a.ids.(w land emask) (w lsr a.ebits)
  done

let out_degree a i = a.row.(i + 1) - a.row.(i)
let csr a = (a.row, a.tr)

let step a s e =
  Option.map (state_of_index a) (step_index a (index_of_state a s) (Event.id e))

let enabled a s =
  let acc = ref [] in
  iter_row a (index_of_state a s) (fun eid _ ->
      acc := event_of_id a eid :: !acc);
  List.sort Event.compare !acc

let transitions a =
  let names = Once.force a.names in
  let acc = ref [] in
  for s = 0 to a.n - 1 do
    iter_row a s (fun eid d ->
        let event = event_of_id a eid in
        acc := { src = names.(s); event; dst = names.(d) } :: !acc)
  done;
  List.rev !acc

(* --- construction ---------------------------------------------------- *)

let make_index name n names_once =
  Once.make (fun () ->
     let names = Once.force names_once in
     let h = Hashtbl.create (2 * n) in
     Array.iteri
       (fun i s ->
         if Hashtbl.mem h s then
           invalid_arg
             (Printf.sprintf "Automaton %s: duplicate state name %S" name s);
         Hashtbl.add h s i)
       names;
     h)

(* The record over rows already checked, the alphabet's events by id
   in [events]. *)
let assemble ~name ~naming ~names ~index ~alphabet ~events ~initial ~flags
    ~row ~tr =
  {
    name;
    n = String.length flags;
    naming;
    names;
    index;
    alphabet;
    events;
    ids = Array.map Event.id events;
    ebits = bits_for (Array.length events);
    row;
    tr;
    initial;
    flags;
    digest = None;
  }

(* A word holds a target below [2^(32 - ebits)]: an automaton with more
   states has no word for some of them. *)
let check_fits who name n ebits =
  if n > 1 lsl (32 - ebits) then
    invalid_arg
      (Printf.sprintf "%s %s: %d states exceed the %d a %d-bit rank leaves"
         who name n
         (1 lsl (32 - ebits))
         ebits)

let of_naming ~name ~naming ~alphabet ~initial ~flags ~row ~tr =
  let who = "Automaton.of_csr" in
  let n = String.length flags in
  let events = Event.by_id alphabet in
  let sigma = Array.length events in
  let ebits = bits_for sigma in
  let emask = (1 lsl ebits) - 1 in
  check_fits who name n ebits;
  if initial < 0 || initial >= n then
    invalid_arg
      (Printf.sprintf "%s %s: initial %d out of range" who name initial);
  let malformed () =
    invalid_arg (Printf.sprintf "%s %s: malformed rows" who name)
  in
  if
    Bytes.length tr land 3 <> 0
    || Array.length row <> n + 1
    || row.(0) <> 0
    || row.(n) <> Bytes.length tr lsr 2
  then malformed ();
  for s = 0 to n - 1 do
    if row.(s + 1) < row.(s) then malformed ();
    if Char.code flags.[s] land lnot (flag_marked lor flag_forbidden) <> 0 then
      invalid_arg
        (Printf.sprintf "%s %s: state %d: flag byte %d out of range" who name s
           (Char.code flags.[s]))
  done;
  (* Every row now lies within [tr]. *)
  for s = 0 to n - 1 do
    for k = row.(s) to row.(s + 1) - 1 do
      let w = word tr k in
      if w land emask >= sigma then
        invalid_arg
          (Printf.sprintf "%s %s: row %d: event rank %d out of range" who name
             s (w land emask));
      if w lsr ebits >= n then
        invalid_arg
          (Printf.sprintf "%s %s: row %d: target %d out of range" who name s
             (w lsr ebits));
      if k > row.(s) && word tr (k - 1) land emask >= w land emask then
        invalid_arg
          (Printf.sprintf "%s %s: row %d not strictly sorted by event rank"
             who name s)
    done
  done;
  (match naming with
  | Leaves a when Array.length a <> n ->
      invalid_arg
        (Printf.sprintf "%s %s: %d names for %d states" who name
           (Array.length a) n)
  | Prod p when Array.length p.keys <> n ->
      invalid_arg
        (Printf.sprintf "%s %s: %d product keys for %d states" who name
           (Array.length p.keys) n)
  | _ -> ());
  let names =
    match naming with
    | Leaves a -> Once.of_val a
    | Prod _ ->
        Once.make (fun () ->
            let w = writer 0 naming in
            Array.init n (fun i ->
                let b = Bytes.create (name_length w i) in
                ignore (write_decoded w i b 0 : int);
                Bytes.unsafe_to_string b))
  in
  assemble ~name ~naming ~names ~index:(make_index name n names) ~alphabet
    ~events ~initial ~flags ~row ~tr

let of_csr ~name ~names =
  let naming =
    match names with
    | Names a -> Leaves a
    | Product (parts, keys) ->
        Prod
          {
            parts = Array.map (fun p -> p.naming) parts;
            radix = Array.map (fun p -> p.n) parts;
            keys;
          }
  in
  of_naming ~name ~naming

let create ?marked ?(forbidden = []) ?(alphabet = []) ~name ~initial
    ~transitions () =
  (* Event-name consistency first: the comparator's order is total over
     (name, controllability), so this is where a name used with both
     polarities must be caught — loudly, not from inside a Set rebalance. *)
  let ctrl_of_name = Hashtbl.create 16 in
  let check_event e =
    match Hashtbl.find_opt ctrl_of_name (Event.name e) with
    | Some c when c <> Event.is_controllable e ->
        invalid_arg
          (Printf.sprintf
             "Automaton %s: event %S is used both controllably and \
              uncontrollably"
             name (Event.name e))
    | Some _ -> ()
    | None -> Hashtbl.add ctrl_of_name (Event.name e) (Event.is_controllable e)
  in
  List.iter check_event alphabet;
  List.iter (fun (_, e, _) -> check_event e) transitions;
  (* Collect states in first-seen order, initial state first. *)
  let index = Hashtbl.create 16 in
  let order = ref [] in
  let intern s =
    match Hashtbl.find_opt index s with
    | Some i -> i
    | None ->
        let i = Hashtbl.length index in
        Hashtbl.add index s i;
        order := s :: !order;
        i
  in
  let initial_i = intern initial in
  List.iter
    (fun (src, _, dst) ->
      ignore (intern src);
      ignore (intern dst))
    transitions;
  let check_known kind s =
    if not (Hashtbl.mem index s) then
      invalid_arg
        (Printf.sprintf "Automaton %s: %s state %S unknown" name kind s)
  in
  Option.iter (List.iter (check_known "marked")) marked;
  List.iter (check_known "forbidden") forbidden;
  let n = Hashtbl.length index in
  let state_names = Array.make n "" in
  List.iter (fun s -> state_names.(Hashtbl.find index s) <- s) !order;
  let delta = Hashtbl.create 16 in
  let sigma = ref (Event.set_of_list alphabet) in
  List.iter
    (fun (src, e, dst) ->
      sigma := Event.Set.add e !sigma;
      let si = Hashtbl.find index src and di = Hashtbl.find index dst in
      match Hashtbl.find_opt delta (si, Event.id e) with
      | Some d when d <> di ->
          invalid_arg
            (Printf.sprintf
               "Automaton %s: nondeterministic on %S from state %S" name
               (Event.name e) src)
      | Some _ -> ()
      | None -> Hashtbl.add delta (si, Event.id e) di)
    transitions;
  (* The rows: the (state, event rank) keys of [delta], packed into one
     int each and sorted once, are the CSR order. *)
  let events = Event.by_id !sigma in
  let ids = Array.map Event.id events in
  let width = Array.length events in
  let ebits = bits_for width in
  check_fits "Automaton" name n ebits;
  let keys = Array.make (Hashtbl.length delta) 0 in
  let k = ref 0 in
  Hashtbl.iter
    (fun (si, eid) _ ->
      keys.(!k) <- (si * width) + rank_of_id ids eid;
      incr k)
    delta;
  Array.sort Int.compare keys;
  let row = Array.make (n + 1) 0 in
  Array.iter
    (fun key ->
      let s = (key / width) + 1 in
      row.(s) <- row.(s) + 1)
    keys;
  for i = 0 to n - 1 do
    row.(i + 1) <- row.(i + 1) + row.(i)
  done;
  let tr = Bytes.create (4 * Array.length keys) in
  Array.iteri
    (fun j key ->
      let si = key / width and r = key mod width in
      set_word tr j ((Hashtbl.find delta (si, ids.(r)) lsl ebits) lor r))
    keys;
  let flags =
    Bytes.make n (Char.chr (if marked = None then flag_marked else 0))
  in
  let set bit s =
    let i = Hashtbl.find index s in
    Bytes.set flags i (Char.chr (Char.code (Bytes.get flags i) lor bit))
  in
  Option.iter (List.iter (set flag_marked)) marked;
  List.iter (set flag_forbidden) forbidden;
  assemble ~name ~naming:(Leaves state_names)
    ~names:(Once.of_val state_names) ~index:(Once.of_val index)
    ~alphabet:!sigma ~events ~initial:initial_i
    ~flags:(Bytes.unsafe_to_string flags) ~row ~tr

let accepts a w =
  let rec go i = function
    | [] -> has a i flag_marked
    | e :: rest -> (
        match step_index a i (Event.id e) with
        | None -> false
        | Some j -> go j rest)
  in
  go a.initial w

let trace a w =
  let rec go i = function
    | [] -> Some (state_of_index a i)
    | e :: rest -> (
        match step_index a i (Event.id e) with
        | None -> None
        | Some j -> go j rest)
  in
  go a.initial w

let rename a name = { a with name; digest = None }

let unescape_state_name s =
  if String.contains s '\\' then begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '\\' && !i + 1 < n then incr i;
      Buffer.add_char b s.[!i];
      incr i
    done;
    Buffer.contents b
  end
  else s

(* Decimal digits of a non-negative int, written at [p] in [b]
   (returning the next position) without the intermediate string
   [string_of_int] would allocate. *)
let rec put_digits b p i =
  let p = if i >= 10 then put_digits b p (i / 10) else p in
  Bytes.set b p (Char.unsafe_chr (48 + (i mod 10)));
  p + 1

(* The digest is streamed through the runtime's MD5 context
   ({!Spectr_linalg.Md5}) a buffer at a time: the bytes it hashes are
   never held whole.  The buffer is [md5_chunk] bytes, or fewer when
   that bounds the whole image: a 64 KB allocation tripled the cost of a
   small automaton's digest, which [Synth_cache] pays on every
   lookup. *)
module Md5 = Spectr_linalg.Md5

let md5_chunk = 65536

(* A length prefix: the decimal length and ':'. *)
let md5_len h l =
  Md5.room h 21;
  h.Md5.pos <- put_digits h.Md5.buf h.Md5.pos l;
  Md5.add_char h ':'

(* Layout, uniquely decodable: the name, the state names and each
   alphabet event (with 'c'/'u') as length-prefixed text fields, and
   every count, row offset, event rank and target as an 8-byte
   little-endian int; the marked and forbidden flags are one byte per
   state each. *)
let structural_digest a =
  match a.digest with
  | Some d -> d
  | None ->
      (* A transition names its event by the event's rank in the
         alphabet section, which lists the alphabet in set order:
         [set_rank] maps a word's rank (id order) to it, so it is sized
         by the alphabet whatever ids the process minted. *)
      let sigma = Array.length a.events in
      let set_rank = Array.make sigma 0 in
      let r = ref 0 and text = ref 0 in
      Event.Set.iter
        (fun e ->
          set_rank.(rank_of_id a.ids (Event.id e)) <- !r;
          incr r;
          text := !text + String.length (Event.name e) + 22)
        a.alphabet;
      let w = writer 0 a.naming in
      (* A bound on the bytes below: each name field and length prefix
         at its longest. *)
      let bound =
        !text + String.length a.name + 21
        + (a.n * (max_name_length w + 23))
        + (8 * (a.n + 4 + (2 * num_transitions a)))
      in
      let h = Md5.create (min md5_chunk bound) in
      let field s =
        md5_len h (String.length s);
        Md5.add_string h s
      in
      field a.name;
      Md5.add_int h a.n;
      Md5.add_int h a.initial;
      (* The names are written from [naming] in one walk, each product
         state decoded once, straight into the buffer — through a string
         of its own only when one name outgrows the buffer. *)
      for i = 0 to a.n - 1 do
        let l = name_length w i in
        md5_len h l;
        if l <= Bytes.length h.Md5.buf then begin
          Md5.room h l;
          h.Md5.pos <- write_decoded w i h.Md5.buf h.Md5.pos
        end
        else begin
          let b = Bytes.create l in
          ignore (write_decoded w i b 0 : int);
          Md5.add_string h (Bytes.unsafe_to_string b)
        end
      done;
      Md5.add_int h sigma;
      Event.Set.iter
        (fun e ->
          field (Event.name e);
          Md5.add_char h (if Event.is_controllable e then 'c' else 'u'))
        a.alphabet;
      (* CSR order: by source index, then event id — deterministic within
         a process (intern order), which is all the in-process cache
         needs. *)
      Array.iter (Md5.add_int h) a.row;
      let emask = (1 lsl a.ebits) - 1 in
      for k = 0 to num_transitions a - 1 do
        let w = word a.tr k in
        Md5.add_int h set_rank.(w land emask);
        Md5.add_int h (w lsr a.ebits)
      done;
      for i = 0 to a.n - 1 do
        Md5.add_char h (if has a i flag_marked then '1' else '0')
      done;
      for i = 0 to a.n - 1 do
        Md5.add_char h (if has a i flag_forbidden then '1' else '0')
      done;
      let d = Md5.to_hex h in
      a.digest <- Some d;
      d

let isomorphic a b =
  Event.Set.equal a.alphabet b.alphabet
  &&
  let map_ab = Hashtbl.create 16 in
  let map_ba = Hashtbl.create 16 in
  let queue = Queue.create () in
  let bind i j =
    match (Hashtbl.find_opt map_ab i, Hashtbl.find_opt map_ba j) with
    | Some j', _ when j' <> j -> false
    | _, Some i' when i' <> i -> false
    | Some _, Some _ -> true
    | _ ->
        Hashtbl.replace map_ab i j;
        Hashtbl.replace map_ba j i;
        Queue.push (i, j) queue;
        true
  in
  let ok = ref (bind a.initial b.initial) in
  while !ok && not (Queue.is_empty queue) do
    let i, j = Queue.pop queue in
    if a.flags.[i] <> b.flags.[j] then ok := false
    else
      Event.Set.iter
        (fun e ->
          let eid = Event.id e in
          match (step_index a i eid, step_index b j eid) with
          | None, None -> ()
          | Some i', Some j' -> if not (bind i' j') then ok := false
          | _ -> ok := false)
        a.alphabet
  done;
  !ok

let pp ppf a =
  Format.fprintf ppf "%s: %d states, %d transitions, %d events, initial %S"
    a.name (num_states a) (num_transitions a)
    (Event.Set.cardinal a.alphabet)
    (initial a)
