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
(* order, an event handled by its lowest-indexed owner).  The parallel   *)
(* exploration is level-synchronous and shards states by a hash of their *)
(* joint key, so its interim numbering is jobs-dependent — but each      *)
(* worker buffers its emissions in exactly the intrinsic per-state       *)
(* order, which means a cheap sequential BFS renumbering over the        *)
(* buffered rows reproduces the canonical numbering *exactly*, for any   *)
(* [jobs].  With one worker the interim numbering already is canonical  *)
(* (one shard's level-synchronous BFS is a plain FIFO BFS), so the       *)
(* renumbering copy is skipped.  Everything after that point (CSR sort   *)
(* in [of_indexed_arrays], digests, names) is a pure function of that    *)
(* numbering.  The fixpoint passes each compute                          *)
(* a complete, unique fixpoint of a monotone operator, so their per-pass *)
(* removal counts and the iteration count are traversal-order-free.     *)
(*                                                                       *)
(* Buffer discipline: the emission buffers are the only transition-sized *)
(* arrays that grow by doubling.  Every later one — renumbered rows,     *)
(* predecessor and uncontrollable CSRs, the supervisor's transitions —  *)
(* is allocated once at its counted size, and buffers are dropped as     *)
(* soon as the next phase no longer reads them.                          *)
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

(* True when numbering the states of a CSR in index order already is the
   BFS discovery order from state 0: every state is discovered before it
   is expanded, and each newly discovered state takes the next number.
   Asserted of the one-job numbering, which is canonical by construction. *)
let is_bfs_order n row dst =
  let next = ref 1 and ok = ref true and i = ref 0 in
  while !ok && !i < n do
    if !i >= !next then ok := false
    else
      for k = row.(!i) to row.(!i + 1) - 1 do
        let d = dst.(k) in
        if d = !next then incr next else if d > !next then ok := false
      done;
    incr i
  done;
  !ok

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
  (* A state's interim encoding is [(l lsl sh) lor s]: its shard [s] and
     its insertion index [l] within the shard.  Shards take the hash's
     high bits; the tables index their slots by its low bits. *)
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
  (* Shard s owns the states it inserted, numbered l = 0, 1, … in
     insertion order. *)
  let tables = Array.init jobs (fun _ -> Inttbl.create ()) in
  let skeys = Array.init jobs (fun _ -> Intvec.create ()) in
  let flo = Array.make jobs 0 and fhi = Array.make jobs 0 in
  (* Worker w's emissions, state by state in the order it expanded its
     shard's states: [bcnt] holds one emission count per state, [bev] and
     [bdst] the event ids and destination keys.  Each key is resolved in
     place, by the owner of its shard, to the destination's encoding;
     [bpos.(w).(s)] lists where this level's keys of shard s sit in
     [bdst.(w)], in emission order. *)
  let bcnt = Array.init jobs (fun _ -> Intvec.create ()) in
  let bev = Array.init jobs (fun _ -> Intvec.create ()) in
  let bdst = Array.init jobs (fun _ -> Intvec.create ()) in
  let bpos =
    Array.init jobs (fun _ -> Array.init jobs (fun _ -> Intvec.create ()))
  in
  let besc = Array.init jobs (fun _ -> Intvec.create ()) in
  let srow = Array.make jobs [||] in
  let idxs = Array.init jobs (fun _ -> Array.make nc 0) in
  let stacks = Array.init jobs (fun _ -> Intvec.create ()) in
  let spill =
    Array.init jobs (fun _ ->
        Array.init jobs (fun _ -> [| Intvec.create (); Intvec.create () |]))
  in
  (* Shared slots, published worker-0 -> everyone through barrier waits. *)
  let shard_off = Array.make (jobs + 1) 0 in
  let n_total = ref 0 in
  let canonical = ref false in
  let perm = ref [||] and ord = ref [||] in
  let okey = ref [||] in
  let frow = ref [||] and fev = ref [||] and fdst = ref [||] in
  let pmarked = ref [||] and pforbid = ref [||] and pesc = ref [||] in
  let prow = ref [||] and pred = ref [||] in
  let usrow = ref [||] and usucc = ref [||] in
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
  (* Seed the initial state into its shard before workers start. *)
  let s0 = shard_of key0 in
  ignore (Inttbl.put tables.(s0) key0 0);
  Intvec.push skeys.(s0) key0;
  fhi.(s0) <- 1;
  let worker w b =
    (* ---------- phase 1: level-synchronous sharded product BFS ------- *)
    let idx = idxs.(w) in
    let ev_out = bev.(w) and dst_out = bdst.(w) in
    let expand src key =
      let emitted = Intvec.length ev_out in
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
              if o = spec_c && not ctrl.(eid) then Intvec.push besc.(w) src
            end
            else begin
              dkey := !dkey + ((d - idx.(o)) * weights.(o));
              incr oi
            end
          done;
          if !ok then begin
            Intvec.push bpos.(w).(shard_of !dkey) (Intvec.length dst_out);
            Intvec.push ev_out eid;
            Intvec.push dst_out !dkey
          end
        done
      done;
      Intvec.push bcnt.(w) (Intvec.length ev_out - emitted)
    in
    let levels = ref true in
    while !levels do
      (* E: expand this shard's frontier into the emission buffers. *)
      for l = flo.(w) to fhi.(w) - 1 do
        expand ((l lsl sh) lor w) (Intvec.get skeys.(w) l)
      done;
      Spmd.wait b;
      (* A: visit every worker's emissions of this level that carry keys
         this shard owns, in worker-then-emission order; insert fresh
         ones (they form the next frontier) and resolve each in place. *)
      let tbl = tables.(w) and keys = skeys.(w) in
      flo.(w) <- Intvec.length keys;
      for v = 0 to jobs - 1 do
        let qd = Intvec.data bdst.(v) in
        let ps = bpos.(v).(w) in
        let pd = Intvec.data ps in
        for y = 0 to Intvec.length ps - 1 do
          let x = pd.(y) in
          let key = qd.(x) in
          let fresh = Intvec.length keys in
          let l =
            match Inttbl.put tbl key fresh with
            | -1 ->
                Intvec.push keys key;
                fresh
            | l -> l
          in
          qd.(x) <- (l lsl sh) lor w
        done;
        Intvec.clear ps
      done;
      fhi.(w) <- Intvec.length keys;
      Spmd.wait b;
      let any = ref false in
      for s = 0 to jobs - 1 do
        if fhi.(s) > flo.(s) then any := true
      done;
      levels := !any
    done;
    (* ---------- phase 2: per-shard rows, canonical numbering --------- *)
    tables.(w) <- Inttbl.create ();
    let counts = Intvec.data bcnt.(w) in
    let ns = Intvec.length bcnt.(w) in
    let r = Array.make (ns + 1) 0 in
    for l = 0 to ns - 1 do
      r.(l + 1) <- r.(l) + counts.(l)
    done;
    srow.(w) <- r;
    bcnt.(w) <- Intvec.create ~capacity:1 ();
    bpos.(w) <- [||];
    Spmd.wait b;
    if w = 0 then begin
      let off = ref 0 in
      for s = 0 to jobs - 1 do
        shard_off.(s) <- !off;
        off := !off + Intvec.length skeys.(s)
      done;
      shard_off.(jobs) <- !off;
      let n = !off in
      n_total := n;
      if jobs = 1 then begin
        assert (is_bfs_order n srow.(0) (Intvec.data bdst.(0)));
        canonical := true;
        okey := Intvec.data skeys.(0);
        frow := srow.(0);
        fev := Intvec.data bev.(0);
        fdst := Intvec.data bdst.(0)
      end
      else begin
        (* Sequential BFS over the shard rows in emission order: the
           canonical numbering.  [p] maps flat interim indices
           (shard_off.(s) + l) to canonical ones, [o] canonical indices
           back to interim encodings. *)
        let flat enc = shard_off.(enc land smask) + (enc lsr sh) in
        let p = Array.make n (-1) in
        let o = Array.make n 0 in
        p.(flat s0) <- 0;
        o.(0) <- s0;
        let cnt = ref 1 in
        let head = ref 0 in
        while !head < !cnt do
          let enc = o.(!head) in
          incr head;
          let s = enc land smask and l = enc lsr sh in
          let d = Intvec.data bdst.(s) in
          for k = srow.(s).(l) to srow.(s).(l + 1) - 1 do
            let de = d.(k) in
            let df = flat de in
            if p.(df) < 0 then begin
              p.(df) <- !cnt;
              o.(!cnt) <- de;
              incr cnt
            end
          done
        done;
        (* Every inserted key is the destination of some emission (or the
           initial state), so the BFS covers everything. *)
        assert (!cnt = n);
        perm := p;
        ord := o;
        let nrow = Array.make (n + 1) 0 in
        for i = 0 to n - 1 do
          let enc = o.(i) in
          let s = enc land smask and l = enc lsr sh in
          nrow.(i + 1) <- nrow.(i) + (srow.(s).(l + 1) - srow.(s).(l))
        done;
        frow := nrow;
        fev := Array.make nrow.(n) 0;
        fdst := Array.make nrow.(n) 0;
        okey := Array.make n 0
      end;
      pmarked := Array.make n false;
      pforbid := Array.make n false;
      pesc := Array.make n false
    end;
    Spmd.wait b;
    let n = !n_total in
    let nrow = !frow and fe = !fev and fd = !fdst and ko = !okey in
    let pm = !pmarked and pf = !pforbid and pe = !pesc in
    let chunk = (n + jobs - 1) / jobs in
    let lo_r = min n (w * chunk) in
    let hi_r = min n ((w + 1) * chunk) in
    let owner i = i / chunk in
    if not !canonical then begin
      let p = !perm and o = !ord in
      let flat enc = shard_off.(enc land smask) + (enc lsr sh) in
      for i = lo_r to hi_r - 1 do
        let enc = o.(i) in
        let s = enc land smask and l = enc lsr sh in
        let se = Intvec.data bev.(s) and sd = Intvec.data bdst.(s) in
        let q = ref nrow.(i) in
        for k = srow.(s).(l) to srow.(s).(l + 1) - 1 do
          fe.(!q) <- se.(k);
          fd.(!q) <- p.(flat sd.(k));
          incr q
        done;
        ko.(i) <- Intvec.get skeys.(s) l
      done;
      for x = 0 to Intvec.length besc.(w) - 1 do
        pe.(p.(flat (Intvec.get besc.(w) x))) <- true
      done
    end
    else
      for x = 0 to Intvec.length besc.(w) - 1 do
        pe.(Intvec.get besc.(w) x) <- true
      done;
    let idx = idxs.(w) in
    for i = lo_r to hi_r - 1 do
      decode ko.(i) idx;
      let mk = ref true and fb = ref false in
      for c = 0 to nc - 1 do
        if not cs.(c).cmarked.(idx.(c)) then mk := false;
        if cs.(c).cforbidden.(idx.(c)) then fb := true
      done;
      pm.(i) <- !mk;
      pf.(i) <- !fb
    done;
    Spmd.wait b;
    if not !canonical then begin
      (* The renumbered copy replaces the emission buffers. *)
      bev.(w) <- Intvec.create ~capacity:1 ();
      bdst.(w) <- Intvec.create ~capacity:1 ();
      skeys.(w) <- Intvec.create ~capacity:1 ();
      if w = 0 then begin
        perm := [||];
        ord := [||]
      end
    end;
    (* ---------- phase 3: derived CSRs (pred, uncontrollable) --------- *)
    (* Two independent tasks, on workers 0 and 1 when there are two:
       predecessors for the blocking pass, the uncontrollable successor
       and predecessor CSRs for the uncontrollable pass.  Both read the
       renumbered rows directly and size their arrays from counts. *)
    if w = 0 then begin
      let pr = Array.make (n + 1) 0 in
      for k = 0 to nrow.(n) - 1 do
        let d = fd.(k) in
        pr.(d + 1) <- pr.(d + 1) + 1
      done;
      for i = 0 to n - 1 do
        pr.(i + 1) <- pr.(i + 1) + pr.(i)
      done;
      let cur = Array.sub pr 0 n in
      let pd = Array.make nrow.(n) 0 in
      for i = 0 to n - 1 do
        for k = nrow.(i) to nrow.(i + 1) - 1 do
          let d = fd.(k) in
          pd.(cur.(d)) <- i;
          cur.(d) <- cur.(d) + 1
        done
      done;
      prow := pr;
      pred := pd;
      good := Array.make n true;
      coacc := Array.make n false
    end;
    if w = 1 mod jobs then begin
      let usr = Array.make (n + 1) 0 and upr = Array.make (n + 1) 0 in
      for i = 0 to n - 1 do
        for k = nrow.(i) to nrow.(i + 1) - 1 do
          if unc.(fe.(k)) then begin
            usr.(i + 1) <- usr.(i + 1) + 1;
            let d = fd.(k) in
            upr.(d + 1) <- upr.(d + 1) + 1
          end
        done
      done;
      for i = 0 to n - 1 do
        usr.(i + 1) <- usr.(i + 1) + usr.(i);
        upr.(i + 1) <- upr.(i + 1) + upr.(i)
      done;
      let usx = Array.make usr.(n) 0 and upx = Array.make usr.(n) 0 in
      let cur = Array.sub upr 0 n in
      let q = ref 0 in
      for i = 0 to n - 1 do
        for k = nrow.(i) to nrow.(i + 1) - 1 do
          if unc.(fe.(k)) then begin
            let d = fd.(k) in
            usx.(!q) <- d;
            incr q;
            upx.(cur.(d)) <- i;
            cur.(d) <- cur.(d) + 1
          end
        done
      done;
      usrow := usr;
      usucc := usx;
      uprow := upr;
      upred := upx
    end;
    Spmd.wait b;
    let g = !good and ca = !coacc in
    let pr = !prow and pd = !pred in
    let usr = !usrow and usx = !usucc in
    let upr = !uprow and upx = !upred in
    (* ---------- phase 4: parallel fixpoint --------------------------- *)
    let cnt_removed = ref 0 in
    let stack = stacks.(w) in
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
         escape or a bad uncontrollable successor; propagate backwards
         over the uncontrollable sub-graph. *)
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
      (* First iteration also removes forbidden states, exactly as the
         sequential path removes them before its loop. *)
      if !iterations = 0 then begin
        for i = lo_r to hi_r - 1 do
          if pf.(i) then begin
            g.(i) <- false;
            incr cnt_removed
          end
        done;
        wcnt.(w) <- !cnt_removed;
        cnt_removed := 0;
        Spmd.wait b;
        if w = 0 then begin
          let s = ref 0 in
          for v = 0 to jobs - 1 do
            s := !s + wcnt.(v)
          done;
          removed_forb := !s
        end;
        Spmd.wait b
      end;
      for i = lo_r to hi_r - 1 do
        if g.(i) then
          if pe.(i) then kill i
          else begin
            let bad = ref false in
            let k = ref usr.(i) in
            let hi = usr.(i + 1) in
            while (not !bad) && !k < hi do
              if not g.(usx.(!k)) then bad := true;
              incr k
            done;
            if !bad then kill i
          end
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
    if w = 0 then
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
      end;
    Spmd.wait b;
    if not !empty then begin
      let so = !sup_of in
      let cnt = ref 0 in
      for i = lo_r to hi_r - 1 do
        if g.(i) then
          for k = nrow.(i) to nrow.(i + 1) - 1 do
            if g.(fd.(k)) then incr cnt
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
            if g.(fd.(k)) then begin
              ks.(!q) <- so.(i);
              ke.(!q) <- fe.(k);
              kd.(!q) <- so.(fd.(k));
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
    let os = !old_of_sup and ko = !okey in
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
