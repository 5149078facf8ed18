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

(* The loop's floats, rewritten every period, in records of floats
   only: OCaml stores them flat, where a float field of the mixed [t]
   (or a [float option]) would hold a box until the next minor
   collection promoted it.  [prev_error] is meaningful only once
   [has_prev]. *)
type io = {
  mutable reference : float;
  mutable measured : float;
  mutable command : float;
}

type loop = { mutable integral : float; mutable prev_error : float }

type t = { cfg : config; io : io; loop : loop; mutable has_prev : bool }

let create cfg ~reference =
  {
    cfg;
    io = { reference; measured = 0.; command = 0. };
    loop = { integral = 0.; prev_error = 0. };
    has_prev = false;
  }

let io t = t.io

let[@inline] clamp lo hi v = Float.min hi (Float.max lo v)

let update t =
  let { kp; ki; kd; dt; u_min; u_max } = t.cfg in
  let io = t.io and l = t.loop in
  let e = io.reference -. io.measured in
  let deriv = if t.has_prev then (e -. l.prev_error) /. dt else 0. in
  let integral_candidate = l.integral +. (e *. dt) in
  let u_unsat = (kp *. e) +. (ki *. integral_candidate) +. (kd *. deriv) in
  let u = clamp u_min u_max u_unsat in
  (* anti-windup: only commit the integral when not saturated *)
  if u = u_unsat then l.integral <- integral_candidate;
  l.prev_error <- e;
  t.has_prev <- true;
  io.command <- u

let reset t =
  t.loop.integral <- 0.;
  t.has_prev <- false

type saved = t

let saved t =
  {
    t with
    io = { t.io with reference = t.io.reference };
    loop = { t.loop with integral = t.loop.integral };
  }

let copy_state ~src ~dst =
  dst.io.reference <- src.io.reference;
  dst.loop.integral <- src.loop.integral;
  dst.loop.prev_error <- src.loop.prev_error;
  dst.has_prev <- src.has_prev

let copy t s ~restore =
  if restore then copy_state ~src:s ~dst:t else copy_state ~src:t ~dst:s
