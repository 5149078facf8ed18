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

(* Off the reference platform the tag carries the boot platform's
   digest, so that equal tags mean equal saved shapes. *)
let platform_variant platform base =
  if Design_flow.is_reference_platform platform then base
  else base ^ "@" ^ String.sub (Platform_desc.digest platform) 0 12

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
   of silently becoming 0 cores (which `int_of_float nan` produces); the
   frequency's clamp is {!Opp.request_at}'s. *)
let[@inline] sanitize_cores ~max_cores u ~at =
  let cores = u.(at) in
  if Float.is_nan cores then 1
  else
    int_of_float
      (Float.round (Float.max 1. (Float.min (float_of_int max_cores) cores)))

(* Sanitize, quantize and apply, nothing else — no readback record and
   no log message (even an unemitted [Log.debug] call allocates its
   message closure), so this is the tick-path actuation of every
   manager.  [cluster] is the platform cluster index.  The command pair
   is read in place and the OPP crosses to the SoC as an int, so no
   float is boxed on the way. *)
let command_cluster soc cluster u ~at =
  Obs.Counters.incr c_actuations;
  (if Obs.enabled () then
     (* Count commands in the garbage class the sanitizers exist for:
        non-finite or negative, not mere range clamping. *)
     let f_mhz = u.(at) *. 1000. in
     if (not (Float.is_finite f_mhz)) || f_mhz < 0. || Float.is_nan u.(at + 1)
     then Obs.Counters.incr c_sanitized);
  let opp = Opp.request_at (Soc.opp_table soc cluster) u ~at in
  ignore (Soc.set_opp soc cluster opp : int);
  Soc.set_active_cores soc cluster
    (sanitize_cores ~max_cores:(Soc.cluster_cores soc cluster) u ~at:(at + 1));
  opp

let apply_cluster soc cluster u ~at =
  ignore (command_cluster soc cluster u ~at : int)
