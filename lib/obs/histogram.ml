(* Fixed-bucket log-scale latency histograms.

   Bucket [b] holds samples whose nanosecond value needs exactly [b]
   significant bits, i.e. the half-open range [2^(b-1), 2^b) (bucket 0
   holds zero samples).  63 buckets cover every OCaml int.  Negative
   samples — a clock bug upstream — are rejected whole (counted only in
   [dropped]): the old behaviour clamped them out of [sum] but still
   incremented [count] and bucket 0, silently dragging [mean_ns] below
   every real sample.  Buckets are plain atomics — recording is a couple
   of fetch-and-adds, domain-safe without locks — and percentiles are
   answered from the cumulative bucket walk, clamped by the
   exactly-tracked maximum. *)

let bucket_count = 63

type t = {
  buckets : int Atomic.t array;
  count : int Atomic.t;
  sum : int Atomic.t;
  max : int Atomic.t;
  dropped : int Atomic.t; (* negative samples rejected by [observe] *)
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 8
let mu = Mutex.create ()

let histogram name =
  Mutex.lock mu;
  let h =
    match Hashtbl.find_opt registry name with
    | Some h -> h
    | None ->
        let h =
          {
            buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
            count = Atomic.make 0;
            sum = Atomic.make 0;
            max = Atomic.make 0;
            dropped = Atomic.make 0;
          }
        in
        Hashtbl.add registry name h;
        h
  in
  Mutex.unlock mu;
  h

let bucket_of ns =
  if ns <= 0 then 0
  else begin
    let b = ref 0 and v = ref ns in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    min !b (bucket_count - 1)
  end

let rec update_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then update_max cell v

let observe t ns =
  if Atomic.get State.enabled then
    if ns < 0 then ignore (Atomic.fetch_and_add t.dropped 1)
    else begin
      ignore (Atomic.fetch_and_add t.buckets.(bucket_of ns) 1);
      ignore (Atomic.fetch_and_add t.count 1);
      ignore (Atomic.fetch_and_add t.sum ns);
      update_max t.max ns
    end

let count t = Atomic.get t.count
let max_ns t = Atomic.get t.max
let dropped t = Atomic.get t.dropped

let mean_ns t =
  let n = Atomic.get t.count in
  if n = 0 then 0. else float_of_int (Atomic.get t.sum) /. float_of_int n

(* Upper bound of the bucket holding the rank-p sample, clamped by the
   exact maximum (so percentile 100 is the true max). *)
let percentile t p =
  if p < 0. || p > 100. then invalid_arg "Histogram.percentile";
  let total = Atomic.get t.count in
  if total = 0 then 0
  else begin
    let rank =
      Stdlib.max 1
        (Stdlib.min total
           (int_of_float (Float.ceil (p /. 100. *. float_of_int total))))
    in
    let acc = ref 0 and result = ref 0 and found = ref false in
    for b = 0 to bucket_count - 1 do
      if not !found then begin
        acc := !acc + Atomic.get t.buckets.(b);
        if !acc >= rank then begin
          found := true;
          result := (if b = 0 then 0 else (1 lsl b) - 1)
        end
      end
    done;
    Stdlib.min !result (Atomic.get t.max)
  end

let snapshot () =
  Mutex.lock mu;
  let xs = Hashtbl.fold (fun name h acc -> (name, h) :: acc) registry [] in
  Mutex.unlock mu;
  List.sort (fun (a, _) (b, _) -> compare a b) xs

let reset () =
  Mutex.lock mu;
  Hashtbl.iter
    (fun _ h ->
      Array.iter (fun b -> Atomic.set b 0) h.buckets;
      Atomic.set h.count 0;
      Atomic.set h.sum 0;
      Atomic.set h.max 0;
      Atomic.set h.dropped 0)
    registry;
  Mutex.unlock mu
