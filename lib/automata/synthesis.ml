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
(* The synthesis engine.                                                 *)
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
(* Buffer discipline: the state table's keys, the row ends and the      *)
(* transitions live in [Intvec]s of fixed chunks that are appended to   *)
(* and never copied, so no state- or transition-sized array grows by    *)
(* doubling.  Every later array — the uncontrollable and good-region    *)
(* predecessor CSRs, the supervisor's rows — is allocated once at its   *)
(* counted size, and buffers are dropped as soon as the next phase no   *)
(* longer reads them.                                                    *)
(* ===================================================================== *)

(* One component: its CSR rows cut down to the events it handles (it is
   their first owner), and its flags.  A component that some other
   component's event also needs is consulted through its step table. *)
type comp = {
  cn : int;
  crow : int array;
  cev : int array;
  cdst : int array;
  cinit : int;
  cmarked : bool array;
  cforbidden : bool array;
}

(* Product state flags, set where the state's key is decoded.  A
   state's flags share one word with its row end: [(end lsl fbits) lor
   flags]. *)
let f_marked = 1
let f_forbidden = 2
let f_escape = 4
let fbits = 3
let fmask = (1 lsl fbits) - 1

(* The phases after the BFS read the product in place from the
   vectors' chunks (the [Intvec.t] layout), through closed helpers the
   compiler inlines: a call per access would cost more than the
   access. *)
let cget (ch : int array array) i = ch.(i lsr 15).(i land 0x7fff)
let row_end rf s = cget rf s lsr fbits
let row_start rf s = if s = 0 then 0 else row_end rf (s - 1)
let flags rf s = cget rf s land fmask
let mem mask s = Bytes.get mask s <> '\000'

let synthesize ~comps ~sup_name ~context =
  let nc = Array.length comps in
  let spec_c = nc - 1 in
  let alphabet =
    let acc = ref (Automaton.alphabet comps.(0)) in
    for c = 1 to nc - 1 do
      acc := Event.merge_alphabets ~context !acc (Automaton.alphabet comps.(c))
    done;
    !acc
  in
  let max_id = Event.Set.fold (fun e m -> max m (Event.id e)) alphabet (-1) in
  let ctrl = Array.make (max_id + 1) true in
  Event.Set.iter
    (fun e -> ctrl.(Event.id e) <- Event.is_controllable e)
    alphabet;
  (* Event ownership: an event is handled by its lowest-indexed owner's
     row walk; [others] lists the remaining owners ascending, so plant
     owners are always consulted before the spec (index nc-1) — escapes
     are only recorded once the whole plant side has enabled the event.
     Each entry is a pair: the owner and the event's rank in the owner's
     alphabet, its column in the owner's step table. *)
  let first_owner = Array.make (max_id + 1) (-1) in
  let owner_count = Array.make (max_id + 1) 0 in
  for c = 0 to nc - 1 do
    Event.Set.iter
      (fun e ->
        let eid = Event.id e in
        if first_owner.(eid) < 0 then first_owner.(eid) <- c;
        owner_count.(eid) <- owner_count.(eid) + 1)
      (Automaton.alphabet comps.(c))
  done;
  let others =
    Array.init (max_id + 1) (fun eid ->
        Array.make (2 * max 0 (owner_count.(eid) - 1)) 0)
  in
  let fill = Array.make (max_id + 1) 0 in
  let width =
    Array.map (fun a -> Event.Set.cardinal (Automaton.alphabet a)) comps
  in
  let needs_table = Array.make nc false in
  for c = 1 to nc - 1 do
    let r = ref 0 in
    Event.Set.iter
      (fun e ->
        let eid = Event.id e in
        if c <> first_owner.(eid) then begin
          needs_table.(c) <- true;
          others.(eid).(fill.(eid)) <- c;
          others.(eid).(fill.(eid) + 1) <- !r;
          fill.(eid) <- fill.(eid) + 2
        end;
        incr r)
      (Automaton.alphabet comps.(c))
  done;
  (* Step tables: [n_c × |Σ_c|] destinations (-1 where δ is undefined),
     row-major by state, columns by the event's rank in Σ_c. *)
  let rank = Array.make (max_id + 1) 0 in
  let tables =
    Array.mapi
      (fun c a ->
        if not needs_table.(c) then [||]
        else begin
          let r = ref 0 in
          Event.Set.iter
            (fun e ->
              rank.(Event.id e) <- !r;
              incr r)
            (Automaton.alphabet a);
          let w = width.(c) in
          let row, ev, dst = Automaton.csr a in
          let tab = Array.make (Automaton.num_states a * w) (-1) in
          for i = 0 to Automaton.num_states a - 1 do
            for t = row.(i) to row.(i + 1) - 1 do
              tab.((i * w) + rank.(ev.(t))) <- dst.(t)
            done
          done;
          tab
        end)
      comps
  in
  (* Controllability is about what the plant can generate: only
     plant-owned uncontrollable events form the uncontrollable graph. *)
  let unc =
    Array.init (max_id + 1) (fun eid ->
        let o = first_owner.(eid) in
        (not ctrl.(eid)) && o >= 0 && o < spec_c)
  in
  let cs =
    Array.mapi
      (fun c a ->
        let cn = Automaton.num_states a in
        let crow, cev, cdst = Automaton.csr a in
        let keep t = first_owner.(cev.(t)) = c in
        let row = Array.make (cn + 1) 0 in
        for i = 0 to cn - 1 do
          let d = ref 0 in
          for t = crow.(i) to crow.(i + 1) - 1 do
            if keep t then incr d
          done;
          row.(i + 1) <- row.(i) + !d
        done;
        (* A component that handles all its events keeps its own CSR. *)
        let crow, cev, cdst =
          if row.(cn) = crow.(cn) then (crow, cev, cdst)
          else begin
            let ev = Array.make row.(cn) 0 and dst = Array.make row.(cn) 0 in
            let q = ref 0 in
            for t = 0 to crow.(cn) - 1 do
              if keep t then begin
                ev.(!q) <- cev.(t);
                dst.(!q) <- cdst.(t);
                incr q
              end
            done;
            (row, ev, dst)
          end
        in
        {
          cn;
          crow;
          cev;
          cdst;
          cinit = Automaton.initial_index a;
          cmarked = Array.init cn (Automaton.is_marked_index a);
          cforbidden = Array.init cn (Automaton.is_forbidden_index a);
        })
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
      k := !k + (cs.(c).cinit * weights.(c))
    done;
    !k
  in
  (* ---------- product BFS ------------------------------------------- *)
  (* [tbl] numbers the joint keys in discovery order, and its key vector
     is the BFS queue; [rowfl] holds each state's row end and f_* bits,
     [tr] the transitions.  A transition is one int, [(target lsl ebits)
     lor event id]. *)
  let ebits =
    let b = ref 1 in
    while 1 lsl !b <= max_id do
      incr b
    done;
    !b
  in
  let emask = (1 lsl ebits) - 1 and max_states = 1 lsl (62 - ebits) in
  let tbl = Inttbl.create () in
  ignore (Inttbl.intern tbl key0 : int);
  let rowfl = Intvec.create () and tr = Intvec.create () in
  let idx = Array.make nc 0 in
  let removed_forb = ref 0 in
  let i = ref 0 in
  while !i < Inttbl.length tbl do
    let key = Inttbl.key tbl !i in
    (* Component indices, one division per component, and the flags. *)
    let k = ref key and fl = ref f_marked in
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
      if not cc.cmarked.(i_c) then fl := !fl land lnot f_marked;
      if cc.cforbidden.(i_c) then fl := !fl lor f_forbidden
    done;
    for c = 0 to nc - 1 do
      let cc = cs.(c) in
      let i_c = idx.(c) in
      for t = cc.crow.(i_c) to cc.crow.(i_c + 1) - 1 do
        let eid = cc.cev.(t) in
        let dkey = ref (key + ((cc.cdst.(t) - i_c) * weights.(c))) in
        let oth = others.(eid) in
        let no = Array.length oth in
        let oi = ref 0 in
        while !oi < no do
          let o = oth.(!oi) in
          let i_o = idx.(o) in
          let d = tables.(o).((i_o * width.(o)) + oth.(!oi + 1)) in
          if d < 0 then begin
            (* Every owner below [o] stepped.  [o] can only be the spec
               when the whole plant side enabled the event: an
               uncontrollable escape. *)
            if o = spec_c && not ctrl.(eid) then fl := !fl lor f_escape;
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
          Intvec.push tr ((j lsl ebits) lor eid)
        end
      done
    done;
    if !fl land f_forbidden <> 0 then incr removed_forb;
    Intvec.push rowfl ((tr.len lsl fbits) lor !fl);
    incr i
  done;
  let n = Inttbl.length tbl in
  let ft = tr.chunks and rf = rowfl.chunks in
  (* ---------- uncontrollable predecessors --------------------------- *)
  (* One count pass and one fill pass over the product rows.  The offset
     array first counts its row's entries, then holds its row's end, and
     is decremented down to its row's start as the fill walks the
     sources in reverse. *)
  let upr = Array.make (n + 1) 0 in
  for k = 0 to tr.len - 1 do
    let w = cget ft k in
    if unc.(w land emask) then begin
      let d = w lsr ebits in
      upr.(d) <- upr.(d) + 1
    end
  done;
  for j = 1 to n do
    upr.(j) <- upr.(j) + upr.(j - 1)
  done;
  let upx = Array.make upr.(n) 0 in
  for s = n - 1 downto 0 do
    for k = row_end rf s - 1 downto row_start rf s do
      let w = cget ft k in
      if unc.(w land emask) then begin
        let d = w lsr ebits in
        upr.(d) <- upr.(d) - 1;
        upx.(upr.(d)) <- s
      end
    done
  done;
  (* ---------- fixpoint ---------------------------------------------- *)
  let good = Bytes.make n '\001' in
  (* [bad] holds the states the uncontrollable pass propagates from:
     the forbidden and escaping states first, then each round's blocking
     removals — earlier bad states' uncontrollable predecessors are bad
     already. *)
  let bad = Intvec.create () and stack = Intvec.create () in
  let removed_unc = ref 0 and removed_blk = ref 0 in
  let iterations = ref 0 in
  let u = ref 0 in
  for s = 0 to n - 1 do
    let f = flags rf s in
    if f land f_forbidden <> 0 then begin
      Bytes.set good s '\000';
      Intvec.push bad s
    end
    else if f land f_escape <> 0 then begin
      Bytes.set good s '\000';
      incr u;
      Intvec.push bad s
    end
  done;
  (* Uncontrollable pass: propagate badness backwards over the
     uncontrollable sub-graph. *)
  let propagate () =
    while bad.len > 0 do
      let j = Intvec.pop bad in
      for k = upr.(j) to upr.(j + 1) - 1 do
        let s = upx.(k) in
        if mem good s then begin
          Bytes.set good s '\000';
          incr u;
          Intvec.push bad s
        end
      done
    done
  in
  propagate ();
  (* Predecessors for the blocking pass, over the transitions between
     states still good after the first uncontrollable pass.  The good
     region only shrinks, so every later round's edges are among them. *)
  let pr = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    if mem good s then
      for k = row_start rf s to row_end rf s - 1 do
        let d = cget ft k lsr ebits in
        if mem good d then pr.(d) <- pr.(d) + 1
      done
  done;
  for j = 1 to n do
    pr.(j) <- pr.(j) + pr.(j - 1)
  done;
  let pd = Array.make pr.(n) 0 in
  for s = n - 1 downto 0 do
    if mem good s then
      for k = row_end rf s - 1 downto row_start rf s do
        let d = cget ft k lsr ebits in
        if mem good d then begin
          pr.(d) <- pr.(d) - 1;
          pd.(pr.(d)) <- s
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
        Intvec.push stack s
      end
    done;
    while stack.len > 0 do
      let j = Intvec.pop stack in
      for k = pr.(j) to pr.(j + 1) - 1 do
        let s = pd.(k) in
        if mem good s && not (mem coacc s) then begin
          Bytes.set coacc s '\001';
          Intvec.push stack s
        end
      done
    done;
    let bl = ref 0 in
    for s = 0 to n - 1 do
      if mem good s && not (mem coacc s) then begin
        Bytes.set good s '\000';
        incr bl;
        Intvec.push bad s
      end
    done;
    incr iterations;
    removed_unc := !removed_unc + !u;
    removed_blk := !removed_blk + !bl;
    fix := !u > 0 || !bl > 0;
    u := 0;
    if !fix then propagate ()
  done;
  let stats =
    {
      product_states = n;
      removed_uncontrollable = !removed_unc;
      removed_blocking = !removed_blk;
      removed_forbidden = !removed_forb;
      iterations = !iterations;
    }
  in
  (* ---------- supervisor extraction --------------------------------- *)
  if not (mem good 0) then Error Empty_supervisor
  else begin
    (* Good states keep their product order; [so] maps a product index
       to its supervisor index and [os] back. *)
    let m = n - !removed_forb - !removed_unc - !removed_blk in
    let so = Array.make n (-1) and os = Array.make m 0 in
    let t = ref 0 and j = ref 0 in
    for s = 0 to n - 1 do
      if mem good s then begin
        so.(s) <- !j;
        os.(!j) <- s;
        incr j;
        for k = row_start rf s to row_end rf s - 1 do
          if mem good (cget ft k lsr ebits) then incr t
        done
      end
    done;
    (* The rows, written in supervisor order and each insertion-sorted
       by event id as it is written: a product row is one sorted run per
       component. *)
    let srow = Array.make (m + 1) 0 in
    let sev = Array.make !t 0 and sdst = Array.make !t 0 in
    let q = ref 0 in
    for x = 0 to m - 1 do
      let s = os.(x) in
      let start = !q in
      for k = row_start rf s to row_end rf s - 1 do
        let w = cget ft k in
        let d = w lsr ebits in
        if mem good d then begin
          let e = w land emask in
          let p = ref (!q - 1) in
          while !p >= start && sev.(!p) > e do
            sev.(!p + 1) <- sev.(!p);
            sdst.(!p + 1) <- sdst.(!p);
            decr p
          done;
          sev.(!p + 1) <- e;
          sdst.(!p + 1) <- so.(d);
          incr q
        end
      done;
      srow.(x + 1) <- !q
    done;
    let sup =
      Automaton.of_csr ~name:sup_name
        ~names:(Product (comps, Array.map (Inttbl.key tbl) os))
        ~alphabet ~initial:0
        ~marked:(Array.map (fun s -> flags rf s land f_marked <> 0) os)
        ~forbidden:(Array.make m false) ~row:srow ~event:sev ~target:sdst
    in
    Ok (Reach.accessible sup, stats)
  end

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
