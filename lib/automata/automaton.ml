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

(* Index-native core: δ is CSR — [row] holds per-state offsets into the
   parallel [ev]/[dst] arrays, each row sorted by event id so a lookup is
   a binary search with zero hashing.  Names are a boundary concern: a
   product describes them by [naming], and the name table (and the
   name→index table derived from it) is built on first use, so
   algorithm outputs built with [of_csr] never materialize names unless
   a name-based accessor is actually used. *)
type t = {
  name : string;
  n : int;
  naming : naming;
  names : string array Once.t;
  index : (string, int) Hashtbl.t Once.t;
  alphabet : Event.Set.t;
  decode : (int, Event.t) Hashtbl.t; (* alphabet events keyed by id *)
  row : int array; (* length n+1 *)
  ev : int array; (* event ids, sorted within each row *)
  dst : int array;
  initial : int;
  marked : bool array;
  forbidden : bool array;
  mutable digest : string option; (* memoized structural_digest *)
}

type names = Names of string array | Product of t array * int array

let name a = a.name
let alphabet a = a.alphabet
let num_states a = a.n
let num_transitions a = Array.length a.ev
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
let is_marked_index a i = a.marked.(i)
let is_forbidden_index a i = a.forbidden.(i)
let is_marked a s = a.marked.(index_of_state a s)
let is_forbidden a s = a.forbidden.(index_of_state a s)
let marked a = List.filteri (fun i _ -> a.marked.(i)) (states a)
let forbidden a = List.filteri (fun i _ -> a.forbidden.(i)) (states a)

let event_of_id a eid =
  match Hashtbl.find_opt a.decode eid with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "Automaton %s: event id %d not in the alphabet" a.name
           eid)

(* A while-loop, not a local [let rec]: a recursive helper would close
   over [a] and [eid] and allocate a closure per call, which the
   supervisor tick path cannot afford. *)
let step_index_raw a i eid =
  let lo = ref a.row.(i) in
  let hi = ref a.row.(i + 1) in
  let res = ref (-1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let e = a.ev.(mid) in
    if e = eid then begin
      res := a.dst.(mid);
      lo := !hi
    end
    else if e < eid then lo := mid + 1
    else hi := mid
  done;
  !res

let step_index a i eid =
  match step_index_raw a i eid with -1 -> None | d -> Some d

let iter_row a i f =
  for k = a.row.(i) to a.row.(i + 1) - 1 do
    f a.ev.(k) a.dst.(k)
  done

let out_degree a i = a.row.(i + 1) - a.row.(i)
let csr a = (a.row, a.ev, a.dst)

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

let make_decode alphabet =
  let h = Hashtbl.create (2 * Event.Set.cardinal alphabet + 1) in
  Event.Set.iter (fun e -> Hashtbl.replace h (Event.id e) e) alphabet;
  h

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

let of_naming ~name ~naming ~alphabet ~initial ~marked ~forbidden ~row ~event
    ~target =
  let who = "Automaton.of_csr" in
  let n = Array.length marked in
  if Array.length forbidden <> n then
    invalid_arg
      (Printf.sprintf "%s %s: marked/forbidden length mismatch (%d vs %d)" who
         name n (Array.length forbidden));
  if initial < 0 || initial >= n then
    invalid_arg
      (Printf.sprintf "%s %s: initial %d out of range" who name initial);
  let malformed () =
    invalid_arg (Printf.sprintf "%s %s: malformed rows" who name)
  in
  if
    Array.length row <> n + 1
    || row.(0) <> 0
    || row.(n) <> Array.length event
    || Array.length target <> Array.length event
  then malformed ();
  for s = 0 to n - 1 do
    if row.(s + 1) < row.(s) then malformed ();
    for k = row.(s) to row.(s + 1) - 2 do
      if event.(k) >= event.(k + 1) then
        invalid_arg
          (Printf.sprintf "%s %s: row %d not strictly sorted by event id" who
             name s)
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
  let names_once =
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
  {
    name;
    n;
    naming;
    names = names_once;
    index = make_index name n names_once;
    alphabet;
    decode = make_decode alphabet;
    row;
    ev = event;
    dst = target;
    initial;
    marked;
    forbidden;
    digest = None;
  }

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
  let events = ref (Event.set_of_list alphabet) in
  List.iter
    (fun (src, e, dst) ->
      events := Event.Set.add e !events;
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
  (* The rows: the (state, event id) keys of [delta], packed into one
     int each and sorted once, are the CSR order. *)
  let width = 1 + Hashtbl.fold (fun (_, eid) _ m -> max m eid) delta 0 in
  let keys = Array.make (Hashtbl.length delta) 0 in
  let k = ref 0 in
  Hashtbl.iter
    (fun (si, eid) _ ->
      keys.(!k) <- (si * width) + eid;
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
  let ev = Array.map (fun key -> key mod width) keys in
  let dst =
    Array.map (fun key -> Hashtbl.find delta (key / width, key mod width)) keys
  in
  let marked_arr =
    match marked with
    | None -> Array.make n true
    | Some l ->
        let m = Array.make n false in
        List.iter (fun s -> m.(Hashtbl.find index s) <- true) l;
        m
  in
  let forbidden_arr = Array.make n false in
  List.iter (fun s -> forbidden_arr.(Hashtbl.find index s) <- true) forbidden;
  {
    name;
    n;
    naming = Leaves state_names;
    names = Once.of_val state_names;
    index = Once.of_val index;
    alphabet = !events;
    decode = make_decode !events;
    row;
    ev;
    dst;
    initial = initial_i;
    marked = marked_arr;
    forbidden = forbidden_arr;
    digest = None;
  }

let accepts a w =
  let rec go i = function
    | [] -> a.marked.(i)
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

(* --- surgery --------------------------------------------------------- *)

let restrict_indices a keep =
  if Array.length keep <> a.n then
    invalid_arg
      (Printf.sprintf
         "Automaton %s: restrict_indices: %d flags for %d states" a.name
         (Array.length keep) a.n);
  if not keep.(a.initial) then None
  else begin
    (* A kept state survives when it is the initial state or an endpoint
       of a kept transition (both ends kept). *)
    let survive = Array.make a.n false in
    survive.(a.initial) <- true;
    let n_trans = ref 0 in
    for s = 0 to a.n - 1 do
      if keep.(s) then
        for t = a.row.(s) to a.row.(s + 1) - 1 do
          let d = a.dst.(t) in
          if keep.(d) then begin
            survive.(s) <- true;
            survive.(d) <- true;
            incr n_trans
          end
        done
    done;
    let m = Array.fold_left (fun m s -> if s then m + 1 else m) 0 survive in
    (* Every state surviving means every state and transition is kept:
       the restriction is [a] itself. *)
    if m = a.n then Some a
    else begin
      let new_of_old = Array.make a.n (-1) in
      let old_of_new = Array.make m 0 in
      let j = ref 0 in
      for i = 0 to a.n - 1 do
        if survive.(i) then begin
          new_of_old.(i) <- !j;
          old_of_new.(!j) <- i;
          incr j
        end
      done;
      (* Surviving states are kept, and their kept transitions are a
         subsequence of a sorted row: each new row is written in place. *)
      let row = Array.make (m + 1) 0 in
      let event = Array.make !n_trans 0 and target = Array.make !n_trans 0 in
      let k = ref 0 in
      for j = 0 to m - 1 do
        let s = old_of_new.(j) in
        for t = a.row.(s) to a.row.(s + 1) - 1 do
          let d = a.dst.(t) in
          if keep.(d) then begin
            event.(!k) <- a.ev.(t);
            target.(!k) <- new_of_old.(d);
            incr k
          end
        done;
        row.(j + 1) <- !k
      done;
      (* A product keeps its parts and takes the surviving keys. *)
      let naming =
        match a.naming with
        | Leaves parent -> Leaves (Array.map (Array.get parent) old_of_new)
        | Prod p ->
            Prod { p with keys = Array.map (Array.get p.keys) old_of_new }
      in
      Some
        (of_naming ~name:a.name ~naming ~alphabet:a.alphabet
           ~initial:new_of_old.(a.initial)
           ~marked:(Array.map (fun old -> a.marked.(old)) old_of_new)
           ~forbidden:(Array.map (fun old -> a.forbidden.(old)) old_of_new)
           ~row ~event ~target)
    end
  end

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

(* Decimal digits of a non-negative int: their count, and writing them
   at [p] in [b] (returning the next position) without the intermediate
   string [string_of_int] would allocate. *)
let rec digits i = if i < 10 then 1 else 1 + digits (i / 10)

let rec put_digits b p i =
  let p = if i >= 10 then put_digits b p (i / 10) else p in
  Bytes.set b p (Char.unsafe_chr (48 + (i mod 10)));
  p + 1

(* The rank packed with [id] in [by_id] (sorted [id lsl bits lor rank]
   keys, [id] among them), searched in [lo .. hi].  Top level, with
   every operand an argument, so a lookup allocates no closure. *)
let rec rank_of (by_id : int array) bits id lo hi =
  let mid = (lo + hi) lsr 1 in
  let x = Array.unsafe_get by_id mid in
  let c = x lsr bits in
  if c = id then x land ((1 lsl bits) - 1)
  else if c < id then rank_of by_id bits id (mid + 1) hi
  else rank_of by_id bits id lo (mid - 1)

(* Layout, uniquely decodable: the name, the state names and each
   alphabet event (with 'c'/'u') as length-prefixed text fields, and
   every count, row offset, event rank and target as an 8-byte
   little-endian int; the marked and forbidden flags are one byte per
   state each. *)
let structural_digest a =
  match a.digest with
  | Some d -> d
  | None ->
      (* The names section is written from [naming]: two walks over the
         states, one measuring the section and one writing it, each
         decoding a product state once. *)
      let w = writer 0 a.naming in
      (* A transition names its event by the event's rank in the
         alphabet section.  [by_id] holds id lsl [bits] lor rank for
         every event, sorted, so it is sized by the alphabet whatever
         ids the process minted, and a binary search finds an id's
         rank. *)
      let sigma = Event.Set.cardinal a.alphabet in
      let bits = ref 0 in
      while 1 lsl !bits < sigma do
        incr bits
      done;
      let bits = !bits and by_id = Array.make sigma 0 in
      let text = ref 0 and r = ref 0 in
      let field_len s = digits (String.length s) + 1 + String.length s in
      Event.Set.iter
        (fun e ->
          by_id.(!r) <- (Event.id e lsl bits) lor !r;
          incr r;
          text := !text + field_len (Event.name e) + 1)
        a.alphabet;
      Array.sort Int.compare by_id;
      text := !text + field_len a.name;
      for i = 0 to a.n - 1 do
        let l = name_length w i in
        text := !text + digits l + 1 + l
      done;
      let t = Array.length a.ev in
      let b = Bytes.create (!text + (8 * (a.n + 4 + (2 * t))) + (2 * a.n)) in
      let p = ref 0 in
      let chr c =
        Bytes.set b !p c;
        incr p
      in
      let int i =
        Bytes.set_int64_le b !p (Int64.of_int i);
        p := !p + 8
      in
      let add s =
        p := put_digits b !p (String.length s);
        chr ':';
        Bytes.blit_string s 0 b !p (String.length s);
        p := !p + String.length s
      in
      add a.name;
      int a.n;
      int a.initial;
      for i = 0 to a.n - 1 do
        p := put_digits b !p (name_length w i);
        chr ':';
        p := write_decoded w i b !p
      done;
      int !r;
      Event.Set.iter
        (fun e ->
          add (Event.name e);
          chr (if Event.is_controllable e then 'c' else 'u'))
        a.alphabet;
      (* CSR order: by source index, then event id — deterministic within
         a process (intern order), which is all the in-process cache
         needs. *)
      Array.iter int a.row;
      for k = 0 to t - 1 do
        int (rank_of by_id bits a.ev.(k) 0 (sigma - 1));
        int a.dst.(k)
      done;
      Array.iter (fun m -> chr (if m then '1' else '0')) a.marked;
      Array.iter (fun m -> chr (if m then '1' else '0')) a.forbidden;
      assert (!p = Bytes.length b);
      let d = Digest.to_hex (Digest.bytes b) in
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
    if a.marked.(i) <> b.marked.(j) || a.forbidden.(i) <> b.forbidden.(j) then
      ok := false
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
