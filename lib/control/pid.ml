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

type t = {
  cfg : config;
  mutable reference : float;
  mutable integral : float;
  mutable prev_error : float option;
}

let create cfg ~reference = { cfg; reference; integral = 0.; prev_error = None }

let clamp lo hi v = Float.min hi (Float.max lo v)

let step t ~measured =
  let { kp; ki; kd; dt; u_min; u_max } = t.cfg in
  let e = t.reference -. measured in
  let deriv =
    match t.prev_error with None -> 0. | Some pe -> (e -. pe) /. dt
  in
  let integral_candidate = t.integral +. (e *. dt) in
  let u_unsat = (kp *. e) +. (ki *. integral_candidate) +. (kd *. deriv) in
  let u = clamp u_min u_max u_unsat in
  (* anti-windup: only commit the integral when not saturated *)
  if u = u_unsat then t.integral <- integral_candidate;
  t.prev_error <- Some e;
  u

let set_reference t r = t.reference <- r

let reset t =
  t.integral <- 0.;
  t.prev_error <- None

type snapshot = {
  snap_reference : float;
  snap_integral : float;
  snap_prev_error : float option;
}

let snapshot t =
  {
    snap_reference = t.reference;
    snap_integral = t.integral;
    snap_prev_error = t.prev_error;
  }

let restore t s =
  t.reference <- s.snap_reference;
  t.integral <- s.snap_integral;
  t.prev_error <- s.snap_prev_error
