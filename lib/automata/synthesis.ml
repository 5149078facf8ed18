type stats = {
  product_states : int;
  removed_uncontrollable : int;
  removed_blocking : int;
  removed_forbidden : int;
  iterations : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "product %d states; removed %d forbidden, %d uncontrollable, %d blocking; \
     %d fixpoint iterations"
    s.product_states s.removed_forbidden s.removed_uncontrollable
    s.removed_blocking s.iterations

type error = Empty_supervisor

(* ===================================================================== *)
(* The product engine, in three phases: [explore] walks the reachable   *)
(* product, [fixpoint] prunes it to the supremal controllable and       *)
(* non-blocking region, and [extract] writes the kept states out as an  *)
(* automaton.  Synthesis runs all three; {!Compose.pair} is [explore]   *)
(* on two components and [extract] with nothing pruned.                  *)
(*                                                                       *)
(* The product is taken over an array of components (k plant components *)
(* and the spec, composed on the fly, so a 3^k unconstrained plant is    *)
(* never materialized when the spec admits only a sliver of it).  It    *)
(* runs on the calling domain.                                          *)
(*                                                                       *)
(* Determinism is the load-bearing design decision.  Product states are *)
(* numbered in FIFO BFS discovery order, with per-state emissions in a   *)
(* fixed intrinsic order (each component's CSR row walked in event-id    *)
(* order, an event handled by its lowest-indexed owner), and a state    *)
(* gets its index when it is first found.  Everything after that point  *)
(* (CSR order, digests, names) is a pure function of that numbering.    *)
(* The fixpoint passes each compute a complete, unique fixpoint of a     *)
(* monotone operator, so their per-pass removal counts and the          *)
(* iteration count are traversal-order-free.                            *)
(*                                                                       *)
(* Buffer discipline: every buffer that scales with the product's        *)
(* states or transitions is a [Wordvec] of 32-bit words in fixed         *)
(* chunks, half the bytes of an int per entry.  The row ends and the     *)
(* transitions are appended to and never copied, so none grows by        *)
(* doubling; the uncontrollable and good-region predecessor CSRs and     *)
(* the product-to-result index map are allocated once at their counted  *)
(* size.  Only the state table keeps 63-bit keys.  A transition is one   *)
(* word, [(target lsl ebits) lor event index], the index being the       *)
(* event's rank in the product alphabet sorted by id; a product whose    *)
(* words do not fit is refused.  Each phase's own buffers are dropped    *)
(* when it returns.                                                      *)
(* ===================================================================== *)

(* Product state flags, set where the state's key is decoded.  A
   state's flags share one word with its row end: [(end lsl fbits) lor
   flags]. *)
let f_marked = 1
let f_forbidden = 2
let f_escape = 4
let fbits = 3
let fmask = (1 lsl fbits) - 1

(* One component: its states' f_marked and f_forbidden bits, its CSR
   rows cut down to the events it handles (it is their first owner),
   and its step table — [cn × w] destinations (-1 where δ is
   undefined), row-major by state, columns by the event's rank in its
   alphabet of [w] events — built only when it is some event's other
   owner, and consulted for that event. *)
type comp = {
  cn : int;
  cfl : int array;
  crow : int array;
  cev : int array;
  cdst : int array;
  tab : int array;
  w : int;
}

(* The phases after the BFS read and write the product's words in place
   in the vectors' chunks (the [Wordvec.t] layout), through closed
   helpers inlined by attribute: a call per access would cost more than
   the access.  The chunk lookup is bounds-checked, the word access
   within a chunk is not (a checked one cost the fixpoint phases ~30 %):
   every index below is under its vector's length, each loop running
   over a range the vector was counted or filled to. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] cget (ch : Bytes.t array) i =
  Int32.to_int (get32 ch.(i lsr 15) ((i land 0x7fff) lsl 2)) land 0xffff_ffff

let[@inline] cset (ch : Bytes.t array) i x =
  set32 ch.(i lsr 15) ((i land 0x7fff) lsl 2) (Int32.of_int x)

let[@inline] row_end rf s = cget rf s lsr fbits
let[@inline] row_start rf s = if s = 0 then 0 else row_end rf (s - 1)
let[@inline] flags rf s = cget rf s land fmask
let mem mask s = Bytes.get mask s <> '\000'

(* The explored product: [tbl] numbers the joint keys in discovery
   order, [rowfl] holds each state's row end and f_* bits, [tr] the
   transitions.  [ids] lists the alphabet's event ids ascending, so a
   transition's event index orders as its id does. *)
type product = {
  comps : Automaton.t array;
  alphabet : Event.Set.t;
  ids : int array;
  ebits : int;
  tbl : Inttbl.t;
  rowfl : Wordvec.t;
  tr : Wordvec.t;
}

(* ---------- explore ------------------------------------------------- *)
let explore ~context comps =
  let nc = Array.length comps in
  let spec_c = nc - 1 in
  let alphabet =
    let acc = ref (Automaton.alphabet comps.(0)) in
    for c = 1 to nc - 1 do
      acc := Event.merge_alphabets ~context !acc (Automaton.alphabet comps.(c))
    done;
    !acc
  in
  (* [ids] lists the alphabet's event ids ascending and [eix] maps an
     id to its event index there; every per-event table below is by
     index. *)
  let ids = Event.sorted_ids alphabet in
  let ne = Array.length ids in
  let eix = Array.make (if ne = 0 then 0 else ids.(ne - 1) + 1) 0 in
  Array.iteri (fun x eid -> eix.(eid) <- x) ids;
  (* Event ownership: an event is handled by its lowest-indexed owner's
     row walk; [others] lists the remaining owners ascending, so plant
     owners are always consulted before the spec (index nc-1) — escapes
     are only recorded once the whole plant side has enabled the event.
     Each entry is a pair: the owner, and the event's rank in the
     owner's alphabet (its column in the owner's step table) shifted
     left once, the low bit set when the owner is the spec and the event
     uncontrollable.  [fill] first counts each event's other owners,
     then fills [others]. *)
  let first_owner = Array.make ne (-1) and fill = Array.make ne 0 in
  for c = 0 to nc - 1 do
    Event.Set.iter
      (fun e ->
        let x = eix.(Event.id e) in
        if first_owner.(x) < 0 then first_owner.(x) <- c
        else fill.(x) <- fill.(x) + 1)
      (Automaton.alphabet comps.(c))
  done;
  let others = Array.init ne (fun x -> Array.make (2 * fill.(x)) 0) in
  Array.fill fill 0 ne 0;
  (* A component that is some event's other owner gets a step table,
     and its own rows keep only the events it handles. *)
  let shared = Array.make nc false in
  for c = 1 to nc - 1 do
    let r = ref 0 in
    Event.Set.iter
      (fun e ->
        let x = eix.(Event.id e) in
        if c <> first_owner.(x) then begin
          shared.(c) <- true;
          others.(x).(fill.(x)) <- c;
          others.(x).(fill.(x) + 1) <-
            (!r lsl 1)
            lor Bool.to_int (c = spec_c && not (Event.is_controllable e));
          fill.(x) <- fill.(x) + 2
        end;
        incr r)
      (Automaton.alphabet comps.(c))
  done;
  let cs =
    Array.mapi
      (fun c a ->
        let cn = Automaton.num_states a in
        let crow, cev, cdst = Automaton.csr a in
        let w = Event.Set.cardinal (Automaton.alphabet a) in
        let cfl =
          Array.init cn (fun i ->
              (if Automaton.is_marked_index a i then f_marked else 0)
              lor if Automaton.is_forbidden_index a i then f_forbidden else 0)
        in
        if not shared.(c) then { cn; cfl; crow; cev; cdst; tab = [||]; w }
        else begin
          let rank = Array.make ne 0 and r = ref 0 in
          Event.Set.iter
            (fun e ->
              rank.(eix.(Event.id e)) <- !r;
              incr r)
            (Automaton.alphabet a);
          let tab = Array.make (cn * w) (-1) in
          let keep t = first_owner.(eix.(cev.(t))) = c in
          let row = Array.make (cn + 1) 0 in
          for i = 0 to cn - 1 do
            let d = ref 0 in
            for t = crow.(i) to crow.(i + 1) - 1 do
              tab.((i * w) + rank.(eix.(cev.(t)))) <- cdst.(t);
              if keep t then incr d
            done;
            row.(i + 1) <- row.(i) + !d
          done;
          let ev = Array.make row.(cn) 0 and dst = Array.make row.(cn) 0 in
          let q = ref 0 in
          for t = 0 to crow.(cn) - 1 do
            if keep t then begin
              ev.(!q) <- cev.(t);
              dst.(!q) <- cdst.(t);
              incr q
            end
          done;
          { cn; cfl; crow = row; cev = ev; cdst = dst; tab; w }
        end)
      comps
  in
  (* Mixed-radix key encoding of joint states; must fit an OCaml int. *)
  let weights = Array.make nc 1 in
  let () =
    let w = ref 1 in
    for c = nc - 1 downto 0 do
      weights.(c) <- !w;
      let n_c = cs.(c).cn in
      if !w > max_int / n_c then
        invalid_arg (context ^ ": joint state space exceeds the int key range");
      w := !w * n_c
    done
  in
  let key0 =
    let k = ref 0 in
    for c = 0 to nc - 1 do
      k := !k + (Automaton.initial_index comps.(c) * weights.(c))
    done;
    !k
  in
  let ebits =
    let b = ref 0 in
    while 1 lsl !b < ne do
      incr b
    done;
    !b
  in
  let max_states = 1 lsl (32 - ebits) in
  let max_row_end = 1 lsl (32 - fbits) in
  (* [tbl]'s key vector is the BFS queue. *)
  let tbl = Inttbl.create () in
  ignore (Inttbl.intern tbl key0 : int);
  let rowfl = Wordvec.create () and tr = Wordvec.create () in
  let idx = Array.make nc 0 in
  let i = ref 0 in
  while !i < Inttbl.length tbl do
    let key = Inttbl.key tbl !i in
    (* Component indices, one division per component, and the flags:
       marked where every component is, forbidden where any is. *)
    let k = ref key and all = ref f_marked and any = ref 0 in
    for c = nc - 1 downto 0 do
      let cc = cs.(c) in
      let i_c =
        if c = 0 then !k
        else begin
          let q = !k / cc.cn in
          let i_c = !k - (q * cc.cn) in
          k := q;
          i_c
        end
      in
      idx.(c) <- i_c;
      all := !all land cc.cfl.(i_c);
      any := !any lor cc.cfl.(i_c)
    done;
    let fl = ref (!all lor (!any land f_forbidden)) in
    for c = 0 to nc - 1 do
      let cc = cs.(c) in
      let i_c = idx.(c) in
      for t = cc.crow.(i_c) to cc.crow.(i_c + 1) - 1 do
        let x = eix.(cc.cev.(t)) in
        let dkey = ref (key + ((cc.cdst.(t) - i_c) * weights.(c))) in
        let oth = others.(x) in
        let no = Array.length oth in
        let oi = ref 0 in
        while !oi < no do
          let o = oth.(!oi) in
          let i_o = idx.(o) in
          let co = cs.(o) in
          let col = oth.(!oi + 1) in
          let d = co.tab.((i_o * co.w) + (col lsr 1)) in
          if d < 0 then begin
            (* Every owner below [o] stepped.  [o] can only be the spec
               when the whole plant side enabled the event: an
               uncontrollable escape. *)
            if col land 1 <> 0 then fl := !fl lor f_escape;
            oi := no + 1
          end
          else begin
            dkey := !dkey + ((d - i_o) * weights.(o));
            oi := !oi + 2
          end
        done;
        if !oi = no then begin
          let j = Inttbl.intern tbl !dkey in
          if j >= max_states then
            invalid_arg (context ^ ": product exceeds the state index range");
          Wordvec.push tr ((j lsl ebits) lor x)
        end
      done
    done;
    if tr.len >= max_row_end then
      invalid_arg (context ^ ": product exceeds the transition index range");
    Wordvec.push rowfl ((tr.len lsl fbits) lor !fl);
    incr i
  done;
  { comps; alphabet; ids; ebits; tbl; rowfl; tr }

(* ---------- fixpoint ------------------------------------------------ *)
(* The good region — the supremal controllable and non-blocking states
   of the product, its last component the spec — and the stats. *)
let fixpoint p =
  let n = Inttbl.length p.tbl in
  let ebits = p.ebits in
  let emask = (1 lsl ebits) - 1 in
  let ft = p.tr.chunks and rf = p.rowfl.chunks in
  (* Controllability is about what the plant can generate: only
     plant-owned uncontrollable events form the uncontrollable graph.
     By event index. *)
  let unc =
    let nids = Array.length p.ids in
    let by_id = Array.make (if nids = 0 then 0 else p.ids.(nids - 1) + 1) false in
    for c = 0 to Array.length p.comps - 2 do
      Event.Set.iter
        (fun e ->
          if not (Event.is_controllable e) then by_id.(Event.id e) <- true)
        (Automaton.alphabet p.comps.(c))
    done;
    Array.map (Array.get by_id) p.ids
  in
  (* Uncontrollable predecessors: one count pass and one fill pass over
     the product rows.  The offset array first counts its row's entries,
     then holds its row's end, and is decremented down to its row's
     start as the fill walks the sources in reverse. *)
  let upr = (Wordvec.make (n + 1)).chunks in
  for k = 0 to p.tr.len - 1 do
    let w = cget ft k in
    if unc.(w land emask) then begin
      let d = w lsr ebits in
      cset upr d (cget upr d + 1)
    end
  done;
  for j = 1 to n do
    cset upr j (cget upr j + cget upr (j - 1))
  done;
  let upx = (Wordvec.make (cget upr n)).chunks in
  for s = n - 1 downto 0 do
    for k = row_end rf s - 1 downto row_start rf s do
      let w = cget ft k in
      if unc.(w land emask) then begin
        let d = w lsr ebits in
        let o = cget upr d - 1 in
        cset upr d o;
        cset upx o s
      end
    done
  done;
  let good = Bytes.make n '\001' in
  (* [bad] holds the states the uncontrollable pass propagates from:
     the forbidden and escaping states first, then each round's blocking
     removals — earlier bad states' uncontrollable predecessors are bad
     already. *)
  let bad = Wordvec.create () and stack = Wordvec.create () in
  let removed_forb = ref 0 and removed_unc = ref 0 and removed_blk = ref 0 in
  let iterations = ref 0 in
  let u = ref 0 in
  for s = 0 to n - 1 do
    let f = flags rf s in
    if f land f_forbidden <> 0 then begin
      Bytes.set good s '\000';
      incr removed_forb;
      Wordvec.push bad s
    end
    else if f land f_escape <> 0 then begin
      Bytes.set good s '\000';
      incr u;
      Wordvec.push bad s
    end
  done;
  (* Uncontrollable pass: propagate badness backwards over the
     uncontrollable sub-graph. *)
  let propagate () =
    while bad.len > 0 do
      let j = Wordvec.pop bad in
      for k = cget upr j to cget upr (j + 1) - 1 do
        let s = cget upx k in
        if mem good s then begin
          Bytes.set good s '\000';
          incr u;
          Wordvec.push bad s
        end
      done
    done
  in
  propagate ();
  (* Predecessors for the blocking pass, over the transitions between
     states still good after the first uncontrollable pass.  The good
     region only shrinks, so every later round's edges are among them. *)
  let pr = (Wordvec.make (n + 1)).chunks in
  for s = 0 to n - 1 do
    if mem good s then
      for k = row_start rf s to row_end rf s - 1 do
        let d = cget ft k lsr ebits in
        if mem good d then cset pr d (cget pr d + 1)
      done
  done;
  for j = 1 to n do
    cset pr j (cget pr j + cget pr (j - 1))
  done;
  let pd = (Wordvec.make (cget pr n)).chunks in
  for s = n - 1 downto 0 do
    if mem good s then
      for k = row_end rf s - 1 downto row_start rf s do
        let d = cget ft k lsr ebits in
        if mem good d then begin
          let o = cget pr d - 1 in
          cset pr d o;
          cset pd o s
        end
      done
  done;
  let coacc = Bytes.make n '\000' in
  let fix = ref true in
  while !fix do
    (* Blocking pass: backward reachability from good marked states
       within the good region; whatever is not co-reached is removed. *)
    Bytes.fill coacc 0 n '\000';
    for s = 0 to n - 1 do
      if mem good s && flags rf s land f_marked <> 0 then begin
        Bytes.set coacc s '\001';
        Wordvec.push stack s
      end
    done;
    while stack.len > 0 do
      let j = Wordvec.pop stack in
      for k = cget pr j to cget pr (j + 1) - 1 do
        let s = cget pd k in
        if mem good s && not (mem coacc s) then begin
          Bytes.set coacc s '\001';
          Wordvec.push stack s
        end
      done
    done;
    let bl = ref 0 in
    for s = 0 to n - 1 do
      if mem good s && not (mem coacc s) then begin
        Bytes.set good s '\000';
        incr bl;
        Wordvec.push bad s
      end
    done;
    incr iterations;
    removed_unc := !removed_unc + !u;
    removed_blk := !removed_blk + !bl;
    fix := !u > 0 || !bl > 0;
    u := 0;
    if !fix then propagate ()
  done;
  ( good,
    {
      product_states = n;
      removed_uncontrollable = !removed_unc;
      removed_blocking = !removed_blk;
      removed_forbidden = !removed_forb;
      iterations = !iterations;
    } )

(* ---------- extract ------------------------------------------------- *)
(* The [m] states of [good], in product order, as an automaton named
   [name]; [m] = the product's size keeps every state and reads no
   [good].  Rows are written in that order, each insertion-sorted by
   event id as it is written (a product row is one sorted run per
   component), and each state takes its marked and forbidden bits from
   its flags. *)
let extract p ~name ~good ~m =
  let n = Inttbl.length p.tbl in
  let ebits = p.ebits in
  let emask = (1 lsl ebits) - 1 in
  let ft = p.tr.chunks and rf = p.rowfl.chunks in
  (* [so] maps a good product index to its index in the result; with
     nothing pruned it is the identity and is not built. *)
  let pruned = m < n in
  let so = if pruned then (Wordvec.make n).chunks else [||] in
  let t = ref (if pruned then 0 else p.tr.len) in
  if pruned then begin
    let j = ref 0 in
    for s = 0 to n - 1 do
      if mem good s then begin
        cset so s !j;
        incr j;
        for k = row_start rf s to row_end rf s - 1 do
          if mem good (cget ft k lsr ebits) then incr t
        done
      end
    done
  end;
  let row = Array.make (m + 1) 0 in
  let event = Array.make !t 0 and target = Array.make !t 0 in
  let keys = Array.make m 0 in
  let marked = Array.make m false and forbidden = Array.make m false in
  let q = ref 0 and x = ref 0 in
  for s = 0 to n - 1 do
    if (not pruned) || mem good s then begin
      let start = !q in
      for k = row_start rf s to row_end rf s - 1 do
        let w = cget ft k in
        let d = w lsr ebits in
        if (not pruned) || mem good d then begin
          let e = p.ids.(w land emask) in
          let i = ref (!q - 1) in
          while !i >= start && event.(!i) > e do
            event.(!i + 1) <- event.(!i);
            target.(!i + 1) <- target.(!i);
            decr i
          done;
          event.(!i + 1) <- e;
          target.(!i + 1) <- (if pruned then cget so d else d);
          incr q
        end
      done;
      let f = flags rf s in
      keys.(!x) <- Inttbl.key p.tbl s;
      marked.(!x) <- f land f_marked <> 0;
      forbidden.(!x) <- f land f_forbidden <> 0;
      incr x;
      row.(!x) <- !q
    end
  done;
  Automaton.of_csr ~name
    ~names:(Product (p.comps, keys))
    ~alphabet:p.alphabet ~initial:0 ~marked ~forbidden ~row ~event ~target

let product ~context ~name comps =
  let p = explore ~context comps in
  extract p ~name ~good:Bytes.empty ~m:(Inttbl.length p.tbl)

let synthesize ~comps ~sup_name ~context =
  let p = explore ~context comps in
  let good, st = fixpoint p in
  if not (mem good 0) then Error Empty_supervisor
  else
    let m =
      st.product_states - st.removed_forbidden - st.removed_uncontrollable
      - st.removed_blocking
    in
    Ok (Reach.accessible (extract p ~name:sup_name ~good ~m), st)

let supcon ~plant ~spec =
  synthesize
    ~comps:[| plant; spec |]
    ~sup_name:
      ("sup(" ^ Automaton.name plant ^ "," ^ Automaton.name spec ^ ")")
    ~context:
      (Printf.sprintf "Synthesis.supcon(%s,%s)" (Automaton.name plant)
         (Automaton.name spec))

let supcon_modular ?jobs:_ ~plants ~spec () =
  if plants = [] then invalid_arg "Synthesis.supcon_modular: no plant components";
  let plant_name = String.concat "||" (List.map Automaton.name plants) in
  synthesize
    ~comps:(Array.of_list (plants @ [ spec ]))
    ~sup_name:("sup(" ^ plant_name ^ "," ^ Automaton.name spec ^ ")")
    ~context:
      (Printf.sprintf "Synthesis.supcon_modular(%s,%s)" plant_name
         (Automaton.name spec))
