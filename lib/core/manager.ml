open Spectr_platform
module Obs = Spectr_obs

(* Observability handles (no-ops while instrumentation is disabled). *)
let c_actuations = Obs.Counters.counter "manager.actuations"
let c_sanitized = Obs.Counters.counter "manager.commands_sanitized"

type checkpoint = { variant : string; payload : string }
type persist = { snapshot : unit -> checkpoint; restore : checkpoint -> unit }

type t = {
  name : string;
  step :
    now:float ->
    qos_ref:float ->
    envelope:float ->
    obs:Soc.observation ->
    Soc.t ->
    unit;
  persist : persist option;
}

(* Payloads are Marshal-ed plain data; the variant tag is what guards a
   checkpoint from being restored into the wrong manager kind. *)
let make_persist ~variant ~snapshot ~restore =
  {
    snapshot =
      (fun () -> { variant; payload = Marshal.to_string (snapshot ()) [] });
    restore =
      (fun c ->
        if c.variant <> variant then
          invalid_arg
            (Printf.sprintf "Manager.restore: checkpoint for %S, manager is %S"
               c.variant variant);
        restore (Marshal.from_string c.payload 0));
  }

(* Controller outputs can be garbage (a diverged integrator, a NaN from a
   corrupted measurement).  Non-finite or negative commands must clamp to
   the nearest legal value — NaN conservatively to the low end — instead
   of silently becoming 0 cores (which `int_of_float nan` produces). *)
let sanitize_freq_mhz table freq_ghz =
  let f_mhz = freq_ghz *. 1000. in
  if Float.is_nan f_mhz then float_of_int (Opp.min_freq table)
  else if f_mhz = Float.infinity then float_of_int (Opp.max_freq table)
  else if f_mhz = Float.neg_infinity || f_mhz < 0. then
    float_of_int (Opp.min_freq table)
  else f_mhz

let sanitize_cores ~max_cores cores =
  if Float.is_nan cores then 1
  else
    int_of_float
      (Float.round (Float.max 1. (Float.min (float_of_int max_cores) cores)))

(* Sanitize, quantize and apply, nothing else — no readback record and
   no log message (even an unemitted [Log.debug] call allocates its
   message closure), so this is the tick-path actuation of every
   manager.  [cluster] is the platform cluster index.  The one boxed
   sanitized frequency serves both the request and the OPP returned. *)
let command_cluster soc cluster ~freq_ghz ~cores =
  Obs.Counters.incr c_actuations;
  (if Obs.enabled () then
     (* Count commands in the garbage class the sanitizers exist for:
        non-finite or negative, not mere range clamping. *)
     let f_mhz = freq_ghz *. 1000. in
     if (not (Float.is_finite f_mhz)) || f_mhz < 0. || Float.is_nan cores then
       Obs.Counters.incr c_sanitized);
  let table = Soc.opp_table soc cluster in
  let f_mhz = sanitize_freq_mhz table freq_ghz in
  ignore (Soc.set_frequency soc cluster f_mhz : int);
  Soc.set_active_cores soc cluster
    (sanitize_cores ~max_cores:(Soc.cluster_cores soc cluster) cores);
  Opp.nearest table f_mhz

let apply_cluster soc cluster ~freq_ghz ~cores =
  ignore (command_cluster soc cluster ~freq_ghz ~cores : int)
