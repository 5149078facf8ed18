(* Score weights: a 1.0 bonus for a node already running the item's
   kind, 2.0 per unit of relative power headroom, and penalties of 1.5
   per second of epoch QoS debt, 0.5 per recorded kill and 0.25 per
   background task (placed or pending from this round). *)
let score ~pending (r : Node.report) (it : Arrivals.item) =
  if not r.Node.r_alive then neg_infinity
  else
    let affinity = if r.Node.r_workload = it.Arrivals.a_kind then 1. else 0. in
    let headroom =
      (r.Node.r_cap -. r.Node.r_power) /. Float.max r.Node.r_cap 1e-9
    in
    (1.0 *. affinity)
    +. (2.0 *. headroom)
    -. (1.5 *. r.Node.r_debt)
    -. (0.5 *. float_of_int r.Node.r_kills)
    -. (0.25 *. float_of_int (r.Node.r_background + pending))

let assign ~reports items =
  let n = Array.length reports in
  let pending = Array.make n 0 in
  List.filter_map
    (fun it ->
      let best = ref (-1) and best_score = ref neg_infinity in
      for i = 0 to n - 1 do
        let s = score ~pending:pending.(i) reports.(i) it in
        (* Strict [>] keeps the lowest index on ties — the deterministic
           tie-break the digest check relies on. *)
        if s > !best_score then begin
          best := i;
          best_score := s
        end
      done;
      if !best < 0 then None
      else begin
        pending.(!best) <- pending.(!best) + it.Arrivals.a_tasks;
        Some (!best, it)
      end)
    items
