open Spectr_platform
module Obs = Spectr_obs

(* Observability handles (no-ops while instrumentation is disabled). *)
let c_actuations = Obs.Counters.counter "manager.actuations"
let c_sanitized = Obs.Counters.counter "manager.commands_sanitized"

(* What a checkpoint holds: nothing yet, or a manager family's saved
   state under that family's witness, so restoring reads it back typed. *)
type held = Nothing | Held : 's Type.Id.t * 's -> held

type checkpoint = { mutable variant : string; mutable held : held }

type persist = {
  save : checkpoint -> unit;
  snapshot : unit -> checkpoint;
  restore : checkpoint -> unit;
}

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

let empty_checkpoint () = { variant = ""; held = Nothing }

(* The variant tag is what guards a checkpoint from being restored into
   the wrong manager kind; the family witness then types the saved
   value.  A checkpoint the same variant saved last is overwritten in
   place; any other gets a fresh saved state, its only allocation. *)
let make_persist (type s) ~variant ~(id : s Type.Id.t) ~(saved : unit -> s)
    ~(copy : s -> restore:bool -> unit) =
  let save c =
    match c.held with
    | Held (id', s) when String.equal c.variant variant -> (
        match Type.Id.provably_equal id id' with
        | Some Equal -> copy s ~restore:false
        | None -> c.held <- Held (id, saved ()))
    | _ ->
        c.variant <- variant;
        c.held <- Held (id, saved ())
  in
  {
    save;
    snapshot =
      (fun () ->
        let c = empty_checkpoint () in
        save c;
        c);
    restore =
      (fun c ->
        match c.held with
        | Nothing -> ()
        | Held (id', s) -> (
            match Type.Id.provably_equal id id' with
            | Some Equal when String.equal c.variant variant ->
                copy s ~restore:true
            | _ ->
                invalid_arg
                  (Printf.sprintf
                     "Manager.restore: checkpoint for %S, manager is %S"
                     c.variant variant)));
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
