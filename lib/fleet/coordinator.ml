type policy = Uncoordinated | Static_split | Water_filling

let policy_of_string = function
  | "uncoordinated" -> Some Uncoordinated
  | "static" -> Some Static_split
  | "waterfill" -> Some Water_filling
  | _ -> None

let string_of_policy = function
  | Uncoordinated -> "uncoordinated"
  | Static_split -> "static"
  | Water_filling -> "waterfill"

let[@inline] clamp lo hi x = Float.min hi (Float.max lo x)

(* Guardband held back from the global cap by the coordinated policies.
   A per-chip supervisor tolerates brief overshoot at its own cap (OPP
   quantization dither, one-period actuation lag), so a coordinator
   that allocates the cap to the last watt sees the fleet sum flutter
   over it.  Same reasoning as the chaos invariants' safety guardband,
   applied one level up. *)
let default_headroom = 0.05

(* The most a node can usefully be budgeted: its reported degraded
   capacity (a reconfigured node cannot convert budget beyond it into
   work), never below the boot floor, never above chip TDP. *)
let[@inline] capacity ~(config : Node.config) (r : Node.report) =
  clamp config.cap_floor config.node_tdp r.Node.r_m.Node.r_max_power

(* A node's demand for next epoch, anchored on what it actually drew:
   a node meeting its reference asks for its draw plus a 5 % margin
   (freeing the rest of its cap), while QoS debt scales the ask up to
   +80 % of the draw.  Anchoring on measured power — not on the current
   cap — is what keeps demands heterogeneous when every node is
   somewhat starved: the old cap-anchored rule saturated the whole
   fleet at TDP and degenerated water-filling into an even split.
   Dead nodes are excluded outright (demand 0): their entire former
   allocation redistributes to the survivors in the same epoch, and
   {!Node.set_cap}'s floor clamp still guarantees a later reboot can
   run its minimum-power configuration. *)
let[@inline] demand ~(config : Node.config) ~epoch_s (r : Node.report) =
  if not r.Node.r_alive then 0.
  else begin
    let m = r.Node.r_m in
    let debt_frac = clamp 0. 1. (m.Node.r_debt /. epoch_s) in
    let want = m.Node.r_power *. (1.05 +. (0.8 *. debt_frac)) in
    clamp config.cap_floor (capacity ~config r) want
  end

(* Water-filling allocation of node [i] at water level [level], with its
   demand in [caps.(i)].  Dead nodes have demand 0 < floor, so the floor
   applies to alive nodes only. *)
let[@inline] alloc ~floor reports caps i level =
  if reports.(i).Node.r_alive then Float.max floor (Float.min caps.(i) level)
  else 0.

let[@inline] alloc_sum ~floor reports caps level =
  let s = ref 0. in
  for i = 0 to Array.length caps - 1 do
    s := !s +. alloc ~floor reports caps i level
  done;
  !s

(* The whole call allocates the caps array it returns and nothing else:
   under water-filling that array holds the demands until the level is
   found, and each is then overwritten by its allocation. *)
let rebudget ~policy ~global_cap ~(config : Node.config) ~epoch_s reports =
  let n = Array.length reports in
  let floor = config.cap_floor and tdp = config.node_tdp in
  let budget = global_cap *. (1. -. default_headroom) in
  let n_alive = ref 0 in
  for i = 0 to n - 1 do
    if reports.(i).Node.r_alive then incr n_alive
  done;
  (* Dead nodes get 0 in every coordinated policy — exclusion, not a
     parked floor allocation.  Only alive nodes draw on the budget. *)
  match policy with
  | Uncoordinated ->
      (* The no-coordination baseline: a node enforces its own chip TDP
         and nobody reclaims anything — dead or degraded. *)
      Array.make n tdp
  | Static_split ->
      let caps = Array.make n 0. in
      if !n_alive > 0 then begin
        let share = budget /. float_of_int !n_alive in
        for i = 0 to n - 1 do
          let r = reports.(i) in
          if r.Node.r_alive then caps.(i) <- clamp floor (capacity ~config r) share
        done
      end;
      caps
  | Water_filling ->
      let caps = Array.make n 0. in
      if !n_alive > 0 then begin
        for i = 0 to n - 1 do
          caps.(i) <- demand ~config ~epoch_s reports.(i)
        done;
        let level =
          if alloc_sum ~floor reports caps tdp <= budget then
            (* Budget is abundant: everyone gets their demand. *)
            tdp
          else if alloc_sum ~floor reports caps floor >= budget then
            (* Infeasible below n_alive × floor: hold every alive node
               at its floor (the closest feasible point the node
               interface allows). *)
            floor
          else begin
            (* Bisect the water level λ so Σ max floor (min demand λ)
               meets the cap.  [lo] keeps the under-budget invariant; a
               fixed iteration count keeps the result bit-deterministic
               regardless of inputs. *)
            let lo = ref floor and hi = ref tdp in
            for _ = 1 to 60 do
              let mid = 0.5 *. (!lo +. !hi) in
              if alloc_sum ~floor reports caps mid <= budget then lo := mid
              else hi := mid
            done;
            !lo
          end
        in
        for i = 0 to n - 1 do
          caps.(i) <- alloc ~floor reports caps i level
        done
      end;
      caps
