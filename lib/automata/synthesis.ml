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
(* never materialized when the spec admits only a sliver of it), and    *)
(* both the product construction and the fixpoint run on [jobs] SPMD     *)
(* workers; [jobs = 1] is the sequential engine, inline on the caller.   *)
(*                                                                       *)
(* Determinism is the load-bearing design decision.  Product states are *)
(* numbered in canonical BFS discovery order: per-state emissions in a   *)
(* fixed intrinsic order (each component's CSR row walked in event-id    *)
(* order, an event handled by its lowest-indexed owner).  Exploration is *)
(* level-synchronous and gives each state that index when it is found:  *)
(* workers expand contiguous slices of the level's index range, so       *)
(* worker-then-emission order is exactly FIFO BFS order; the owners of   *)
(* the key shards (a hash of the joint key) insert the level's keys and *)
(* list each fresh key with its first position, and merging those lists *)
(* by first position numbers the fresh states as a FIFO BFS would.  With *)
(* one worker, insertion order already is that order, so its rows are    *)
(* final where they were emitted.  Everything after that point (CSR sort *)
(* in [of_indexed_arrays], digests, names) is a pure function of that    *)
(* numbering, for any [jobs].  The fixpoint passes each compute          *)
(* a complete, unique fixpoint of a monotone operator, so their per-pass *)
(* removal counts and the iteration count are traversal-order-free.     *)
(*                                                                       *)
(* Buffer discipline: transitions live in a [store] of fixed chunks that *)
(* is appended to and never copied, so no transition-sized array grows  *)
(* by doubling.  With one worker the emission store is the product CSR;  *)
(* with more, each worker's resolved emissions of a level are moved into *)
(* it and the worker's store is reused for the next level.  Every later *)
(* array — predecessor and uncontrollable CSRs, the supervisor's         *)
(* transitions — is allocated once at its counted size, and buffers are *)
(* dropped as soon as the next phase no longer reads them.               *)
(*                                                                       *)
(* Memory-ordering note: inside a pass, workers may read [good]/[coacc]  *)
(* cells owned by other workers without synchronization.  Both arrays    *)
(* are monotone (false→true for coacc, true→false for good) and every    *)
(* cross-shard decision taken on a stale read is conservative: a stale   *)
(* read can only cause a spurious spill (re-checked by the owner) or a   *)
(* missed local kill that the owner's own propagation re-delivers via    *)
(* the spill queues.  During a level's insertion phase an owner resolves *)
(* destination keys in other workers' emission buffers in place, but     *)
(* only at the positions their producers recorded for its shard, so no   *)
(* cell has two writers.  Bool and int arrays are word-per-element in    *)
(* OCaml, so distinct cells never tear.                                  *)
(* ===================================================================== *)

(* One component's CSR (shared with the automaton, not copied) and flags:
   closure-free row walks in the per-transition hot loop.  Other owners
   of an event are consulted with [Automaton.step_index_raw], a binary
   search in their row. *)
type comp = {
  cn : int;
  crow : int array;
  cev : int array;
  cdst : int array;
  cinit : int;
  cmarked : bool array;
  cforbidden : bool array;
}

let comp_of_automaton a =
  let cn = Automaton.num_states a in
  let crow, cev, cdst = Automaton.csr a in
  {
    cn;
    crow;
    cev;
    cdst;
    cinit = Automaton.initial_index a;
    cmarked = Array.init cn (Automaton.is_marked_index a);
    cforbidden = Array.init cn (Automaton.is_forbidden_index a);
  }

(* Transition storage: chunks of [1 lsl cbits] ints, appended to and
   never copied.  Only the first chunk grows, by doubling from a size
   that keeps a tiny product in the minor heap up to the full chunk. *)
let cbits = 15
let cmask = (1 lsl cbits) - 1

type store = {
  mutable chunks : int array array;
  mutable cap : int;
  mutable len : int;
}

let store () = { chunks = [| Array.make 64 0 |]; cap = 64; len = 0 }
let cget ch p = ch.(p lsr cbits).(p land cmask)
let get st p = cget st.chunks p
let set st p x = st.chunks.(p lsr cbits).(p land cmask) <- x

let rec reserve st n =
  if n > st.cap then
    if st.cap <= cmask then begin
      let c = Array.make (min (cmask + 1) (max n (2 * st.cap))) 0 in
      Array.blit st.chunks.(0) 0 c 0 st.len;
      st.chunks.(0) <- c;
      st.cap <- Array.length c;
      reserve st n
    end
    else begin
      let m = (n + cmask) lsr cbits and old = st.chunks in
      st.chunks <-
        Array.init m (fun j ->
            if j < Array.length old then old.(j) else Array.make (cmask + 1) 0);
      st.cap <- m lsl cbits
    end

let push st x =
  if st.len = st.cap then reserve st (st.len + 1);
  set st st.len x;
  st.len <- st.len + 1

let supcon_sharded ~jobs ~comps ~sup_name ~context =
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
     are only recorded once the whole plant side has enabled the event. *)
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
  let others = Array.make (max_id + 1) [||] in
  for eid = 0 to max_id do
    if owner_count.(eid) > 1 then
      others.(eid) <- Array.make (owner_count.(eid) - 1) 0
  done;
  let fill = Array.make (max_id + 1) 0 in
  for c = 1 to nc - 1 do
    Event.Set.iter
      (fun e ->
        let eid = Event.id e in
        if c <> first_owner.(eid) then begin
          others.(eid).(fill.(eid)) <- c;
          fill.(eid) <- fill.(eid) + 1
        end)
      (Automaton.alphabet comps.(c))
  done;
  (* Controllability is about what the plant can generate: only
     plant-owned uncontrollable events form the uncontrollable graph. *)
  let unc =
    Array.init (max_id + 1) (fun eid ->
        let o = first_owner.(eid) in
        (not ctrl.(eid)) && o >= 0 && o < spec_c)
  in
  let cs = Array.map comp_of_automaton comps in
  (* Each component's rows cut down to the events it handles (first
     owner), so expansion never walks past an event handled elsewhere. *)
  let own =
    Array.mapi
      (fun c cc ->
        let keep t = first_owner.(cc.cev.(t)) = c in
        let row = Array.make (cc.cn + 1) 0 in
        for i = 0 to cc.cn - 1 do
          let d = ref 0 in
          for t = cc.crow.(i) to cc.crow.(i + 1) - 1 do
            if keep t then incr d
          done;
          row.(i + 1) <- row.(i) + !d
        done;
        let ev = Array.make row.(cc.cn) 0 and dst = Array.make row.(cc.cn) 0 in
        let q = ref 0 in
        for t = 0 to cc.crow.(cc.cn) - 1 do
          if keep t then begin
            ev.(!q) <- cc.cev.(t);
            dst.(!q) <- cc.cdst.(t);
            incr q
          end
        done;
        { cc with crow = row; cev = ev; cdst = dst })
      cs
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
  (* Component indices of a joint key, one division per component. *)
  let decode key idx =
    let k = ref key in
    for c = nc - 1 downto 1 do
      let n_c = cs.(c).cn in
      let q = !k / n_c in
      idx.(c) <- !k - (q * n_c);
      k := q
    done;
    idx.(0) <- !k
  in
  let key0 =
    let k = ref 0 in
    for c = 0 to nc - 1 do
      k := !k + (cs.(c).cinit * weights.(c))
    done;
    !k
  in
  (* A key's interim encoding, while its level is resolved, is
     [(l lsl sh) lor s]: its shard [s] and its insertion index [l] within
     the shard.  Shards take the hash's high bits; the tables index their
     slots by its low bits. *)
  let sh =
    let b = ref 0 in
    while 1 lsl !b < jobs do
      incr b
    done;
    !b
  in
  let smask = (1 lsl sh) - 1 in
  let shard_of key =
    if jobs = 1 then 0 else ((Inttbl.hash key lsr 40) * jobs) lsr 22
  in
  (* --- per-shard / per-worker state ---------------------------------- *)
  (* The product: [keys] maps canonical indices to joint keys, [rows]
     holds the CSR row offsets and [tev]/[tdst] the transitions. *)
  let keys = Intvec.create () and rows = Intvec.create () in
  let tev = store () and tdst = store () in
  (* Shard s numbers the keys it owns l = 0, 1, … in insertion order;
     [canon.(s)] maps l to the canonical index, and [fresh.(s)] lists the
     level's new keys as (first position, key) pairs in that order.
     Worker w's emissions of the level, state by state: [ocnt.(w)] holds
     one emission count per state, [odst.(w)] the destination keys — the
     product CSR itself when there is one worker.  Each key is resolved
     in place, by the owner of its shard, to the destination's encoding;
     [bpos.(w).(s)] lists where the level's keys of shard s sit in
     [odst.(w)], in emission order.  Each worker allocates its own slots
     (and the [spill] queues it produces into) on its own domain, so no
     two workers write to one cache line. *)
  let canon = Array.init jobs (fun _ -> Intvec.create ()) in
  let fresh = Array.make jobs (Intvec.create ~capacity:1 ()) in
  let ocnt = Array.make jobs (Intvec.create ~capacity:1 ()) in
  let odst = Array.make jobs tdst and bpos = Array.make jobs [||] in
  let spill = Array.make jobs [||] in
  (* Shared slots, published worker-0 -> everyone through barrier waits. *)
  let lo = ref 0 and hi = ref 1 in
  let n_total = ref 0 in
  let pmarked = ref [||] and pesc = ref [||] in
  let prow = ref [||] and pred = ref [||] in
  let uprow = ref [||] and upred = ref [||] in
  let good = ref [||] and coacc = ref [||] in
  let wcnt = Array.make jobs 0 in
  let wspill = Array.make jobs 0 in
  let removed_forb = ref 0 in
  let removed_unc = ref 0 and removed_blk = ref 0 in
  let iterations = ref 0 in
  let pass_total = ref 0 in
  let go_on = ref true in
  let empty = ref false in
  let sup_of = ref [||] and old_of_sup = ref [||] in
  let msup = ref 0 in
  let woff = Array.make (jobs + 1) 0 in
  let ksrc = ref [||] and kev = ref [||] and kdst = ref [||] in
  (* The initial state has canonical index 0. *)
  let s0 = shard_of key0 in
  Intvec.push canon.(s0) 0;
  Intvec.push keys key0;
  Intvec.push rows 0;
  let worker w b =
    (* ---------- phase 1: level-synchronous sharded product BFS ------- *)
    let idx = Array.make nc 0 in
    let tbl = Inttbl.create () and nl = ref 0 in
    if w = s0 then begin
      ignore (Inttbl.put tbl key0 0);
      nl := 1
    end;
    let ev_out = if jobs = 1 then tev else store () in
    let dst_out = if jobs = 1 then tdst else store () in
    let pos = Array.init jobs (fun _ -> store ()) in
    let cnt = Intvec.create () and fr = Intvec.create () in
    let esc = Intvec.create () in
    odst.(w) <- dst_out;
    bpos.(w) <- pos;
    ocnt.(w) <- cnt;
    fresh.(w) <- fr;
    spill.(w) <-
      Array.init jobs (fun _ -> [| Intvec.create (); Intvec.create () |]);
    let expand src key =
      let emitted = dst_out.len in
      decode key idx;
      for c = 0 to nc - 1 do
        let cc = own.(c) in
        let i_c = idx.(c) in
        for t = cc.crow.(i_c) to cc.crow.(i_c + 1) - 1 do
          let eid = cc.cev.(t) in
          let dkey = ref (key + ((cc.cdst.(t) - i_c) * weights.(c))) in
          let oth = others.(eid) in
          let no = Array.length oth in
          let ok = ref true in
          let oi = ref 0 in
          while !ok && !oi < no do
            let o = oth.(!oi) in
            let d = Automaton.step_index_raw comps.(o) idx.(o) eid in
            if d < 0 then begin
              ok := false;
              (* Every owner below [o] stepped.  [o] can only be the
                 spec when the whole plant side enabled the event: an
                 uncontrollable escape. *)
              if o = spec_c && not ctrl.(eid) then Intvec.push esc src
            end
            else begin
              dkey := !dkey + ((d - idx.(o)) * weights.(o));
              incr oi
            end
          done;
          if !ok then begin
            if jobs > 1 then push pos.(shard_of !dkey) dst_out.len;
            push ev_out eid;
            push dst_out !dkey
          end
        done
      done;
      Intvec.push cnt (dst_out.len - emitted)
    in
    while !lo < !hi do
      (* E: expand this worker's contiguous slice of the level's index
         range, so that worker-then-emission order is BFS order. *)
      let first = dst_out.len in
      let l0 = !lo and m = !hi - !lo in
      let c = (m + jobs - 1) / jobs in
      for i = l0 + min m (w * c) to l0 + min m ((w + 1) * c) - 1 do
        expand i (Intvec.get keys i)
      done;
      Spmd.wait b;
      (* A: visit every worker's emissions of this level that carry keys
         this shard owns, in worker-then-emission order; insert them,
         list the fresh ones at their first position (counted over the
         whole level), and resolve each in place. *)
      let g = ref 0 in
      for v = 0 to jobs - 1 do
        let q = odst.(v) and ps = bpos.(v).(w) in
        for y = 0 to (if jobs = 1 then q.len - first else ps.len) - 1 do
          let x = if jobs = 1 then first + y else get ps y in
          let key = get q x in
          let l =
            match Inttbl.put tbl key !nl with
            | -1 ->
                Intvec.push fr (!g + x);
                Intvec.push fr key;
                incr nl;
                !nl - 1
            | l -> l
          in
          set q x ((l lsl sh) lor w)
        done;
        ps.len <- 0;
        g := !g + q.len
      done;
      Spmd.wait b;
      (* M: fresh keys take the next canonical indices in order of first
         position (a merge of the shards' lists), then the level's rows
         are laid out, worker by worker. *)
      if w = 0 then begin
        let heads = Array.make jobs 0 in
        let pending s = heads.(s) < Intvec.length fresh.(s) in
        let first_pos s = Intvec.get fresh.(s) heads.(s) in
        let next = ref 0 in
        while !next >= 0 do
          next := -1;
          for s = 0 to jobs - 1 do
            if pending s && (!next < 0 || first_pos s < first_pos !next) then
              next := s
          done;
          let s = !next in
          if s >= 0 then begin
            if jobs > 1 then Intvec.push canon.(s) (Intvec.length keys);
            Intvec.push keys (Intvec.get fresh.(s) (heads.(s) + 1));
            heads.(s) <- heads.(s) + 2
          end
        done;
        let r = ref (Intvec.get rows !lo) in
        for v = 0 to jobs - 1 do
          woff.(v) <- !r;
          for y = 0 to Intvec.length ocnt.(v) - 1 do
            r := !r + Intvec.get ocnt.(v) y;
            Intvec.push rows !r
          done;
          Intvec.clear ocnt.(v);
          Intvec.clear fresh.(v)
        done;
        if jobs > 1 then begin
          reserve tev !r;
          reserve tdst !r;
          tev.len <- !r;
          tdst.len <- !r
        end;
        lo := !hi;
        hi := Intvec.length keys
      end;
      Spmd.wait b;
      (* T: move the resolved rows into the product CSR, mapping each
         encoding to its canonical index.  One worker's rows are final. *)
      if jobs > 1 then begin
        let cd = Array.map Intvec.data canon and o = woff.(w) in
        for x = 0 to dst_out.len - 1 do
          set tev (o + x) (get ev_out x);
          let enc = get dst_out x in
          set tdst (o + x) cd.(enc land smask).(enc lsr sh)
        done;
        ev_out.len <- 0;
        dst_out.len <- 0
      end
    done;
    (* ---------- phase 2: state flags; forbidden states start bad ----- *)
    (* Drop the per-worker buffers. *)
    odst.(w) <- tdst;
    bpos.(w) <- [||];
    if w = 0 then begin
      let n = Intvec.length keys in
      n_total := n;
      pmarked := Array.make n false;
      pesc := Array.make n false;
      good := Array.make n true;
      coacc := Array.make n false
    end;
    Spmd.wait b;
    canon.(w) <- Intvec.create ~capacity:1 ();
    let n = !n_total in
    let nrow = Intvec.data rows and ko = Intvec.data keys in
    let fe = tev.chunks and fd = tdst.chunks in
    let pm = !pmarked and pe = !pesc and g = !good and ca = !coacc in
    let chunk = (n + jobs - 1) / jobs in
    let lo_r = min n (w * chunk) in
    let hi_r = min n ((w + 1) * chunk) in
    let owner i = i / chunk in
    for x = 0 to Intvec.length esc - 1 do
      pe.(Intvec.get esc x) <- true
    done;
    let forbidden = ref 0 in
    for i = lo_r to hi_r - 1 do
      decode ko.(i) idx;
      let mk = ref true and fb = ref false in
      for c = 0 to nc - 1 do
        if not cs.(c).cmarked.(idx.(c)) then mk := false;
        if cs.(c).cforbidden.(idx.(c)) then fb := true
      done;
      pm.(i) <- !mk;
      if !fb then begin
        g.(i) <- false;
        incr forbidden
      end
    done;
    wcnt.(w) <- !forbidden;
    Spmd.wait b;
    (* ---------- phase 3: derived CSRs (pred, uncontrollable) --------- *)
    (* Two independent tasks, on workers 0 and 1 when there are two:
       predecessors for the blocking pass, uncontrollable predecessors
       for the uncontrollable pass.  Both read the product rows in place
       and size their arrays from counts. *)
    if w = 0 then begin
      removed_forb := Array.fold_left ( + ) 0 wcnt;
      let pr = Array.make (n + 1) 0 in
      for k = 0 to nrow.(n) - 1 do
        let d = cget fd k in
        pr.(d + 1) <- pr.(d + 1) + 1
      done;
      for i = 0 to n - 1 do
        pr.(i + 1) <- pr.(i + 1) + pr.(i)
      done;
      let cur = Array.sub pr 0 n in
      let pd = Array.make nrow.(n) 0 in
      for i = 0 to n - 1 do
        for k = nrow.(i) to nrow.(i + 1) - 1 do
          let d = cget fd k in
          pd.(cur.(d)) <- i;
          cur.(d) <- cur.(d) + 1
        done
      done;
      prow := pr;
      pred := pd
    end;
    if w = 1 mod jobs then begin
      let upr = Array.make (n + 1) 0 in
      for k = 0 to nrow.(n) - 1 do
        if unc.(cget fe k) then begin
          let d = cget fd k in
          upr.(d + 1) <- upr.(d + 1) + 1
        end
      done;
      for i = 0 to n - 1 do
        upr.(i + 1) <- upr.(i + 1) + upr.(i)
      done;
      let upx = Array.make upr.(n) 0 in
      let cur = Array.sub upr 0 n in
      for i = 0 to n - 1 do
        for k = nrow.(i) to nrow.(i + 1) - 1 do
          if unc.(cget fe k) then begin
            let d = cget fd k in
            upx.(cur.(d)) <- i;
            cur.(d) <- cur.(d) + 1
          end
        done
      done;
      uprow := upr;
      upred := upx
    end;
    Spmd.wait b;
    let pr = !prow and pd = !pred in
    let upr = !uprow and upx = !upred in
    (* ---------- phase 4: parallel fixpoint --------------------------- *)
    let cnt_removed = ref 0 in
    let stack = Intvec.create () in
    let bank = ref 0 in
    (* Spill-queue propagation shared by both passes: [process i] applies
       the pass's local rule to an owned state; [drain] propagates from
       the local worklist, spilling foreign states to their owners. *)
    let propagate ~drain ~process =
      drain ();
      let produced () =
        let s = ref 0 in
        for v = 0 to jobs - 1 do
          s := !s + Intvec.length spill.(w).(v).(!bank)
        done;
        !s
      in
      wspill.(w) <- produced ();
      Spmd.wait b;
      let rounds = ref true in
      while !rounds do
        let total = ref 0 in
        for v = 0 to jobs - 1 do
          total := !total + wspill.(v)
        done;
        if !total = 0 then rounds := false
        else begin
          (* Everyone must read this round's [wspill] decision before any
             worker overwrites its slot for the next round. *)
          Spmd.wait b;
          let consume = !bank in
          bank := 1 - !bank;
          for v = 0 to jobs - 1 do
            let q = spill.(v).(w).(consume) in
            for x = 0 to Intvec.length q - 1 do
              process (Intvec.get q x)
            done;
            Intvec.clear q
          done;
          drain ();
          wspill.(w) <- produced ();
          Spmd.wait b
        end
      done
    in
    let fix = ref true in
    while !fix do
      (* Uncontrollable pass: kill good states with an uncontrollable
         escape, then propagate backwards from every bad state over the
         uncontrollable sub-graph. *)
      cnt_removed := 0;
      Intvec.clear stack;
      let kill i =
        g.(i) <- false;
        incr cnt_removed;
        Intvec.push stack i
      in
      let drain_u () =
        while Intvec.length stack > 0 do
          let j = Intvec.pop stack in
          for k = upr.(j) to upr.(j + 1) - 1 do
            let i = upx.(k) in
            if g.(i) then
              if owner i = w then kill i
              else Intvec.push spill.(w).(owner i).(!bank) i
          done
        done
      in
      for i = lo_r to hi_r - 1 do
        if not g.(i) then Intvec.push stack i else if pe.(i) then kill i
      done;
      propagate ~drain:drain_u ~process:(fun i -> if g.(i) then kill i);
      wcnt.(w) <- !cnt_removed;
      Spmd.wait b;
      if w = 0 then begin
        let s = ref 0 in
        for v = 0 to jobs - 1 do
          s := !s + wcnt.(v)
        done;
        pass_total := !s
      end;
      Spmd.wait b;
      let u = !pass_total in
      (* Blocking pass: backward reachability from good marked states
         within the good region; whatever is not co-reached is removed. *)
      for i = lo_r to hi_r - 1 do
        ca.(i) <- false
      done;
      Spmd.wait b;
      cnt_removed := 0;
      Intvec.clear stack;
      let mark i =
        ca.(i) <- true;
        Intvec.push stack i
      in
      let drain_b () =
        while Intvec.length stack > 0 do
          let j = Intvec.pop stack in
          for k = pr.(j) to pr.(j + 1) - 1 do
            let i = pd.(k) in
            if g.(i) && not ca.(i) then
              if owner i = w then mark i
              else Intvec.push spill.(w).(owner i).(!bank) i
          done
        done
      in
      for i = lo_r to hi_r - 1 do
        if g.(i) && pm.(i) then mark i
      done;
      propagate ~drain:drain_b ~process:(fun i ->
          if g.(i) && not ca.(i) then mark i);
      for i = lo_r to hi_r - 1 do
        if g.(i) && not ca.(i) then begin
          g.(i) <- false;
          incr cnt_removed
        end
      done;
      wcnt.(w) <- !cnt_removed;
      Spmd.wait b;
      if w = 0 then begin
        let s = ref 0 in
        for v = 0 to jobs - 1 do
          s := !s + wcnt.(v)
        done;
        let bl = !s in
        incr iterations;
        removed_unc := !removed_unc + u;
        removed_blk := !removed_blk + bl;
        go_on := u > 0 || bl > 0
      end;
      Spmd.wait b;
      fix := !go_on
    done;
    (* ---------- phase 5: supervisor extraction ----------------------- *)
    if w = 0 then begin
      (* Only the product rows, [good] and [pmarked] are read from here on. *)
      List.iter (fun r -> r := [||]) [ prow; pred; uprow; upred ];
      pesc := [||];
      if not g.(0) then empty := true
      else begin
        let so = Array.make n (-1) in
        let cnt = ref 0 in
        for i = 0 to n - 1 do
          if g.(i) then begin
            so.(i) <- !cnt;
            incr cnt
          end
        done;
        msup := !cnt;
        let os = Array.make !cnt 0 in
        for i = 0 to n - 1 do
          if g.(i) then os.(so.(i)) <- i
        done;
        sup_of := so;
        old_of_sup := os
      end
    end;
    Spmd.wait b;
    if not !empty then begin
      let so = !sup_of in
      let cnt = ref 0 in
      for i = lo_r to hi_r - 1 do
        if g.(i) then
          for k = nrow.(i) to nrow.(i + 1) - 1 do
            if g.(cget fd k) then incr cnt
          done
      done;
      wcnt.(w) <- !cnt;
      Spmd.wait b;
      if w = 0 then begin
        let off = ref 0 in
        for v = 0 to jobs - 1 do
          woff.(v) <- !off;
          off := !off + wcnt.(v)
        done;
        woff.(jobs) <- !off;
        ksrc := Array.make !off 0;
        kev := Array.make !off 0;
        kdst := Array.make !off 0
      end;
      Spmd.wait b;
      let ks = !ksrc and ke = !kev and kd = !kdst in
      let q = ref woff.(w) in
      for i = lo_r to hi_r - 1 do
        if g.(i) then
          for k = nrow.(i) to nrow.(i + 1) - 1 do
            if g.(cget fd k) then begin
              ks.(!q) <- so.(i);
              ke.(!q) <- cget fe k;
              kd.(!q) <- so.(cget fd k);
              incr q
            end
          done
      done;
      Spmd.wait b
    end
  in
  Spmd.run ~jobs worker;
  let stats =
    {
      product_states = !n_total;
      removed_uncontrollable = !removed_unc;
      removed_blocking = !removed_blk;
      removed_forbidden = !removed_forb;
      iterations = !iterations;
    }
  in
  if !empty then Error Empty_supervisor
  else begin
    let m = !msup in
    let os = !old_of_sup and ko = Intvec.data keys in
    let pm = !pmarked in
    (* The closure keeps only what naming needs, not the engine's
       component tables. *)
    let sizes = Array.map (fun cc -> cc.cn) cs in
    let names () =
      Automaton.product_state_names m nc (fun i c ->
          Automaton.state_of_index comps.(c)
            (ko.(os.(i)) / weights.(c) mod sizes.(c)))
    in
    let sup =
      Automaton.of_indexed_arrays ~name:sup_name ~names ~alphabet ~initial:0
        ~marked:(Array.init m (fun i -> pm.(os.(i))))
        ~forbidden:(Array.make m false) ~src:!ksrc ~event:!kev ~target:!kdst
    in
    Ok (Reach.accessible sup, stats)
  end

let supcon_par ?(jobs = 1) ~plant ~spec () =
  let jobs = max 1 jobs in
  supcon_sharded ~jobs
    ~comps:[| plant; spec |]
    ~sup_name:
      ("sup(" ^ Automaton.name plant ^ "," ^ Automaton.name spec ^ ")")
    ~context:
      (Printf.sprintf "Synthesis.supcon(%s,%s)" (Automaton.name plant)
         (Automaton.name spec))

let supcon ~plant ~spec = supcon_par ~jobs:1 ~plant ~spec ()

let supcon_exn ~plant ~spec =
  match supcon ~plant ~spec with
  | Ok (sup, _) -> sup
  | Error Empty_supervisor -> failwith "Synthesis.supcon: empty supervisor"

let supcon_modular ?(jobs = 1) ~plants ~spec () =
  if plants = [] then invalid_arg "Synthesis.supcon_modular: no plant components";
  let jobs = max 1 jobs in
  let plant_name = String.concat "||" (List.map Automaton.name plants) in
  supcon_sharded ~jobs
    ~comps:(Array.of_list (plants @ [ spec ]))
    ~sup_name:("sup(" ^ plant_name ^ "," ^ Automaton.name spec ^ ")")
    ~context:
      (Printf.sprintf "Synthesis.supcon_modular(%s,%s)" plant_name
         (Automaton.name spec))
