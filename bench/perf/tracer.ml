(* In-memory span tracer for the traced run.

   A span is recorded around one call into a layer's public function
   from the benchmark's own code: it has a name (a {!handle}), an id, a
   parent (the enclosing span on the same domain, -1 at top level), a
   start and an end.  Per name the tracer keeps count, total and self
   time (the span minus its child spans), minor-heap bytes allocated,
   and optionally a {!Fine_hist} of durations; the first [raw_cap]
   spans per domain are also kept verbatim for the JSON sample.

   State is domain-local, so spans opened inside pool tasks never
   contend; {!snapshot} merges every domain's aggregates and must only
   be called while no parallel work runs.  While tracing is off {!span}
   is a plain call.  The recording path allocates nothing, so the byte
   counts it reports belong to the traced call alone. *)

let max_handles = 256
let max_depth = 64
let raw_cap = 4096

let names = Array.make max_handles ""
let wants_hist = Array.make max_handles false
let n_handles = ref 0
let registry = Mutex.create ()

type handle = int

(* The handle for [name], created on first use.  [hist] keeps a
   duration histogram for percentile rows. *)
let handle ?(hist = false) name =
  Mutex.protect registry (fun () ->
      let rec find i =
        if i = !n_handles then begin
          if i = max_handles then failwith "Tracer.handle: too many names";
          names.(i) <- name;
          wants_hist.(i) <- hist;
          incr n_handles;
          i
        end
        else if names.(i) = name then begin
          if hist then wants_hist.(i) <- true;
          i
        end
        else find (i + 1)
      in
      find 0)

type dstate = {
  did : int;
  count : int array;
  total : int array;
  self : int array;
  words : int array; (* minor-heap words allocated *)
  hists : Fine_hist.t option array;
  (* The open-span stack, one slot per depth. *)
  s_handle : int array;
  s_id : int array;
  s_t0 : int array;
  s_w0 : int array;
  s_child : int array; (* child-span ns accumulated so far *)
  mutable depth : int;
  mutable next_id : int;
  mutable top_ns : int; (* summed durations of depth-1 spans *)
  raw : int array; (* raw_cap records of 5 ints: name id parent start end *)
  mutable raw_n : int;
}

let domains : dstate list ref = ref []
let n_domains = ref 0

let new_state () =
  Mutex.protect registry (fun () ->
      let stack () = Array.make (max_depth + 1) 0 in
      let d =
        {
          did = !n_domains;
          count = Array.make max_handles 0;
          total = Array.make max_handles 0;
          self = Array.make max_handles 0;
          words = Array.make max_handles 0;
          hists = Array.make max_handles None;
          s_handle = stack ();
          s_id = stack ();
          s_t0 = stack ();
          s_w0 = stack ();
          s_child = stack ();
          depth = 0;
          next_id = 0;
          top_ns = 0;
          raw = Array.make (5 * raw_cap) 0;
          raw_n = 0;
        }
      in
      incr n_domains;
      domains := d :: !domains;
      d)

let key = Domain.DLS.new_key new_state
let on = ref false
let set_enabled b = on := b
let minor_words () = int_of_float (Gc.minor_words ())

(* Open a span named by [h] on the calling domain.  Every [enter] must
   be matched by a {!leave} on the same domain; {!span} pairs them. *)
let enter h =
  if !on then begin
    let d = Domain.DLS.get key in
    let depth = d.depth + 1 in
    if depth > max_depth then failwith "Tracer.enter: nesting too deep";
    d.depth <- depth;
    d.s_handle.(depth) <- h;
    d.s_id.(depth) <- (d.did lsl 40) lor d.next_id;
    d.next_id <- d.next_id + 1;
    d.s_child.(depth) <- 0;
    d.s_w0.(depth) <- minor_words ();
    d.s_t0.(depth) <- Timer.now_ns ()
  end

(* Close the innermost open span. *)
let leave () =
  if !on then begin
    let t1 = Timer.now_ns () in
    let w1 = minor_words () in
    let d = Domain.DLS.get key in
    let depth = d.depth in
    let h = d.s_handle.(depth) in
    let t0 = d.s_t0.(depth) in
    let dur = t1 - t0 in
    d.count.(h) <- d.count.(h) + 1;
    d.total.(h) <- d.total.(h) + dur;
    d.self.(h) <- d.self.(h) + dur - d.s_child.(depth);
    d.words.(h) <- d.words.(h) + (w1 - d.s_w0.(depth));
    (if wants_hist.(h) then
       match d.hists.(h) with
       | Some hi -> Fine_hist.record hi dur
       | None ->
           let hi = Fine_hist.create () in
           Fine_hist.record hi dur;
           d.hists.(h) <- Some hi);
    if d.raw_n < raw_cap then begin
      let o = 5 * d.raw_n in
      d.raw.(o) <- h;
      d.raw.(o + 1) <- d.s_id.(depth);
      d.raw.(o + 2) <- (if depth > 1 then d.s_id.(depth - 1) else -1);
      d.raw.(o + 3) <- t0;
      d.raw.(o + 4) <- t1;
      d.raw_n <- d.raw_n + 1
    end;
    d.depth <- depth - 1;
    if depth > 1 then d.s_child.(depth - 1) <- d.s_child.(depth - 1) + dur
    else d.top_ns <- d.top_ns + dur
  end

(* [span h f] runs [f ()] inside a span named by [h]. *)
let span h f =
  enter h;
  match f () with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e

(* Summed duration of the calling domain's top-level spans since the
   last {!reset}: the time the trace attributes to named layers. *)
let top_level_s () = float_of_int (Domain.DLS.get key).top_ns /. 1e9

let reset () =
  List.iter
    (fun d ->
      Array.fill d.count 0 max_handles 0;
      Array.fill d.total 0 max_handles 0;
      Array.fill d.self 0 max_handles 0;
      Array.fill d.words 0 max_handles 0;
      Array.fill d.hists 0 max_handles None;
      d.depth <- 0;
      d.top_ns <- 0;
      d.raw_n <- 0)
    !domains

type agg = {
  name : string;
  calls : int;
  total_s : float;
  self_s : float;
  bytes_per_call : float;
  hist : Fine_hist.t option;
}

(* Per-name aggregates merged over every domain, for names with at
   least one call. *)
let snapshot () =
  List.filter_map
    (fun h ->
      let calls = ref 0 and total = ref 0 and self = ref 0 and words = ref 0 in
      let hist = if wants_hist.(h) then Some (Fine_hist.create ()) else None in
      List.iter
        (fun d ->
          calls := !calls + d.count.(h);
          total := !total + d.total.(h);
          self := !self + d.self.(h);
          words := !words + d.words.(h);
          match (hist, d.hists.(h)) with
          | Some dst, Some src -> Fine_hist.merge_into ~dst src
          | _ -> ())
        !domains;
      if !calls = 0 then None
      else
        Some
          {
            name = names.(h);
            calls = !calls;
            total_s = float_of_int !total /. 1e9;
            self_s = float_of_int !self /. 1e9;
            bytes_per_call =
              float_of_int (!words * Timer.word_bytes) /. float_of_int !calls;
            hist;
          })
    (List.init !n_handles Fun.id)

type raw_span = {
  r_name : string;
  r_id : int;
  r_parent : int;
  r_start_ns : int;
  r_end_ns : int;
}

(* The retained raw spans of every domain, oldest first per domain. *)
let raw_sample () =
  List.concat_map
    (fun d ->
      List.init d.raw_n (fun i ->
          let o = 5 * i in
          {
            r_name = names.(d.raw.(o));
            r_id = d.raw.(o + 1);
            r_parent = d.raw.(o + 2);
            r_start_ns = d.raw.(o + 3);
            r_end_ns = d.raw.(o + 4);
          }))
    (List.rev !domains)
