type config = {
  kp : float;
  ki : float;
  kd : float;
  dt : float;
  u_min : float;
  u_max : float;
}

let config ?(u_min = neg_infinity) ?(u_max = infinity) ~kp ~ki ~kd ~dt () =
  if dt <= 0. then invalid_arg "Pid.config: dt <= 0";
  if u_min > u_max then invalid_arg "Pid.config: u_min > u_max";
  { kp; ki; kd; dt; u_min; u_max }

(* The loop's floats, rewritten every period, in a record of floats
   only: OCaml stores it flat, where a float field of the mixed [t] (or
   a [float option]) would hold a box until the next minor collection
   promoted it.  [prev_error] is meaningful only once [has_prev]. *)
type loop = {
  mutable reference : float;
  mutable integral : float;
  mutable prev_error : float;
}

type t = { cfg : config; loop : loop; mutable has_prev : bool }

let create cfg ~reference =
  {
    cfg;
    loop = { reference; integral = 0.; prev_error = 0. };
    has_prev = false;
  }

let clamp lo hi v = Float.min hi (Float.max lo v)

let step t ~measured =
  let { kp; ki; kd; dt; u_min; u_max } = t.cfg in
  let l = t.loop in
  let e = l.reference -. measured in
  let deriv = if t.has_prev then (e -. l.prev_error) /. dt else 0. in
  let integral_candidate = l.integral +. (e *. dt) in
  let u_unsat = (kp *. e) +. (ki *. integral_candidate) +. (kd *. deriv) in
  let u = clamp u_min u_max u_unsat in
  (* anti-windup: only commit the integral when not saturated *)
  if u = u_unsat then l.integral <- integral_candidate;
  l.prev_error <- e;
  t.has_prev <- true;
  u

let set_reference t r = t.loop.reference <- r

let reset t =
  t.loop.integral <- 0.;
  t.has_prev <- false

type snapshot = {
  snap_reference : float;
  snap_integral : float;
  snap_prev_error : float option;
}

let snapshot t =
  let l = t.loop in
  {
    snap_reference = l.reference;
    snap_integral = l.integral;
    snap_prev_error = (if t.has_prev then Some l.prev_error else None);
  }

let restore t s =
  let l = t.loop in
  l.reference <- s.snap_reference;
  l.integral <- s.snap_integral;
  match s.snap_prev_error with
  | Some pe ->
      l.prev_error <- pe;
      t.has_prev <- true
  | None -> t.has_prev <- false
