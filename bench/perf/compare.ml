(* [perf.exe compare A.json… vs B.json…] — advisory comparison of two
   sets of result files written with [--json], by this rule for claiming
   a change:

   - per (metric, workload), each side's median and quartiles;
   - "wins": pairs (a, b) in which the B run is better, out of all pairs;
   - "better" only when B wins at least nine tenths of the pairs and the
     medians differ by more than A's own interquartile distance;
   - "worse" when B's median is worse than A's by more than the bound
     (10 % for per-layer rows, which carry none);
   - "unresolved" when either side's spread exceeds the bound, unless
     every B run beats every A run;
   - otherwise "same".
   Traced files also contribute their [gap_pct] per workload. *)

type run = { workload : string; values : (string * float) list }

let load path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = Json.of_string (String.trim s) in
  let workload =
    match Option.bind (Json.member "workload" j) Json.to_str with
    | Some w -> w
    | None -> failwith (path ^ ": no workload field (was it written by --json?)")
  in
  let values =
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Json.member "value" v) Json.to_num))
          kvs
    | _ -> []
  in
  { workload; values }

let verdict (m : Catalog.metric) a b =
  let bound = Option.value m.Catalog.bound ~default:0.10 in
  let sign = match m.Catalog.better with Catalog.Higher -> 1. | Catalog.Lower -> -1. in
  let better x y = sign *. (y -. x) > 0. in
  let pairs = List.length a * List.length b in
  let wins =
    List.fold_left
      (fun n x -> n + List.length (List.filter (fun y -> better x y) b))
      0 a
  in
  let ma = Stats.median a and mb = Stats.median b in
  let q1a, q3a = Stats.quartiles a in
  let worse_by = if ma = 0. then 0. else sign *. (ma -. mb) /. Float.abs ma in
  let v =
    if
      float_of_int wins >= 0.9 *. float_of_int pairs
      && Float.abs (mb -. ma) > Float.abs (q3a -. q1a)
    then "better"
    else if worse_by > bound then "worse"
    else if (Stats.spread a > bound || Stats.spread b > bound) && wins < pairs then
      "unresolved"
    else "same"
  in
  (wins, pairs, v)

let run args =
  let rec split acc = function
    | "vs" :: rest -> (List.rev acc, rest)
    | x :: rest -> split (x :: acc) rest
    | [] -> failwith "compare: expected A.json ... vs B.json ..."
  in
  let a_paths, b_paths = split [] args in
  if a_paths = [] || b_paths = [] then failwith "compare: both sides need files";
  let a = List.map load a_paths and b = List.map load b_paths in
  let keys =
    List.sort_uniq compare
      (List.concat_map
         (fun r -> List.map (fun (k, _) -> (r.workload, k)) r.values)
         (a @ b))
  in
  let side runs (w, k) =
    List.filter_map
      (fun r -> if r.workload = w then List.assoc_opt k r.values else None)
      runs
  in
  Printf.printf "%-9s %-38s %24s %24s %9s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "wins" "verdict";
  let show xs =
    let q1, q3 = Stats.quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g]" (Stats.median xs) q1 q3
  in
  List.iter
    (fun ((w, k) as key) ->
      match (Catalog.find k, side a key, side b key) with
      | Some m, (_ :: _ as xs), (_ :: _ as ys) ->
          let wins, pairs, v = verdict m xs ys in
          Printf.printf "%-9s %-38s %24s %24s %4d/%-4d  %s\n" w k (show xs) (show ys) wins
            pairs v
      | _ -> ())
    keys;
  List.iter
    (fun (w, _) ->
      let gaps runs = side runs (w, "gap_pct") in
      match (gaps a, gaps b) with
      | [], [] -> ()
      | ga, gb ->
          let med = function [] -> "-" | xs -> Printf.sprintf "%.2f %%" (Stats.median xs) in
          Printf.printf "gap.%s: A %s, B %s (wall time no layer span covers)\n" w (med ga)
            (med gb))
    (List.sort_uniq compare (List.map (fun r -> (r.workload, ())) (a @ b)))
