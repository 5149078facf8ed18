open Spectr_platform

type result = {
  cell : Campaign.cell;
  evaluations : int;
  shrunk : bool;
}

let min_window = 0.2

(* Remove list element [i]. *)
let drop_nth l i = List.filteri (fun j _ -> j <> i) l

let replace_nth l i x = List.mapi (fun j y -> if j = i then x else y) l

let minimize ?(eval_budget = 48) ~violates (cell : Campaign.cell) =
  let used = ref 0 in
  let best = ref cell in
  let shrunk = ref false in
  (* Evaluate a candidate, charging the budget; an exhausted budget
     rejects everything, freezing the current (still-violating) best. *)
  let try_cell c =
    if !used >= eval_budget then false
    else begin
      incr used;
      if violates c then begin
        best := c;
        shrunk := true;
        true
      end
      else false
    end
  in
  (* 1. The kill drill is noise unless it is load-bearing. *)
  (match (!best).Campaign.kill with
  | Some _ -> ignore (try_cell { !best with Campaign.kill = None })
  | None -> ());
  (* 2. ddmin over injections: drop one at a time to a fixpoint (restart
     the scan after every successful removal — indices shift). *)
  let rec drop_pass () =
    let injections = (!best).Campaign.injections in
    let n = List.length injections in
    if n > 1 then begin
      let removed = ref false in
      let i = ref 0 in
      while (not !removed) && !i < n do
        if
          try_cell
            { !best with Campaign.injections = drop_nth injections !i }
        then removed := true
        else incr i
      done;
      if !removed then drop_pass ()
    end
  in
  drop_pass ();
  (* 3. Bisect each surviving window: pull the stop toward the start,
     then the start toward the stop, halving while the violation
     survives.  A permanent fault's window never closes: its stop stays
     infinite and its onset is bisected against the cell's end. *)
  let cell_end =
    List.fold_left
      (fun acc ph -> acc +. ph.Spectr.Scenario.duration_s)
      0. (Campaign.phases [])
  in
  let shrink_window i =
    let shrink_once f =
      let inj = List.nth (!best).Campaign.injections i in
      match f inj with
      | None -> false
      | Some inj' ->
          try_cell
            {
              !best with
              Campaign.injections =
                replace_nth (!best).Campaign.injections i inj';
            }
    in
    let halve_stop inj =
      let span = inj.Faults.stop_s -. inj.Faults.start_s in
      if (not (Float.is_finite span)) || span /. 2. < min_window then None
      else
        Some
          (Faults.injection inj.Faults.fault ~start_s:inj.Faults.start_s
             ~stop_s:(inj.Faults.start_s +. (span /. 2.)))
    in
    let halve_start inj =
      let span = Float.min inj.Faults.stop_s cell_end -. inj.Faults.start_s in
      if span /. 2. < min_window then None
      else
        Some
          (Faults.injection inj.Faults.fault
             ~start_s:(inj.Faults.start_s +. (span /. 2.))
             ~stop_s:inj.Faults.stop_s)
    in
    while shrink_once halve_stop do
      ()
    done;
    while shrink_once halve_start do
      ()
    done
  in
  List.iteri
    (fun i _ -> shrink_window i)
    (!best).Campaign.injections;
  { cell = !best; evaluations = !used; shrunk = !shrunk }
