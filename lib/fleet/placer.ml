(* Score weights: a 1.0 bonus for a node already running the item's
   kind, 2.0 per unit of relative power headroom, and penalties of 1.5
   per second of epoch QoS debt, 0.5 per recorded kill and 0.25 per
   background task (placed or pending from this round). *)
let[@inline] score ~pending (r : Node.report) (it : Arrivals.item) =
  if not r.Node.r_alive then neg_infinity
  else
    let m = r.Node.r_m in
    let affinity = if r.Node.r_workload = it.Arrivals.a_kind then 1. else 0. in
    let headroom =
      (m.Node.r_cap -. m.Node.r_power) /. Float.max m.Node.r_cap 1e-9
    in
    (1.0 *. affinity)
    +. (2.0 *. headroom)
    -. (1.5 *. m.Node.r_debt)
    -. (0.5 *. float_of_int r.Node.r_kills)
    -. (0.25 *. float_of_int (r.Node.r_background + pending))

(* Tasks this round already placed, as [(node index, tasks)] sorted by
   index: a few entries, walked in step with the node scan, where a
   node-sized array would be allocated every round. *)
let rec add_pending i tasks = function
  | (j, t) :: rest when j < i -> (j, t) :: add_pending i tasks rest
  | (j, t) :: rest when j = i -> (j, t + tasks) :: rest
  | l -> (i, tasks) :: l

let assign ~reports items =
  let pending = ref [] in
  List.filter_map
    (fun it ->
      let best = ref (-1) and best_score = ref neg_infinity in
      let ahead = ref !pending in
      for i = 0 to Array.length reports - 1 do
        let p =
          match !ahead with
          | (j, t) :: rest when j = i ->
              ahead := rest;
              t
          | _ -> 0
        in
        let s = score ~pending:p reports.(i) it in
        (* Strict [>] keeps the lowest index on ties — the deterministic
           tie-break the digest check relies on. *)
        if s > !best_score then begin
          best := i;
          best_score := s
        end
      done;
      if !best < 0 then None
      else begin
        pending := add_pending !best it.Arrivals.a_tasks !pending;
        Some (!best, it)
      end)
    items
