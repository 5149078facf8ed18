open Spectr_platform
module Obs = Spectr_obs

(* Observability handles (no-ops while instrumentation is disabled). *)
let c_actuations = Obs.Counters.counter "manager.actuations"
let c_sanitized = Obs.Counters.counter "manager.commands_sanitized"

(* [len] is the payload's byte count in [buf]; 0 marks the checkpoint
   empty (never written, or being written). *)
type checkpoint = {
  mutable variant : string;
  mutable buf : bytes;
  mutable len : int;
}

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

let empty_checkpoint () = { variant = ""; buf = Bytes.empty; len = 0 }
let checkpoint_bytes c = c.len

(* Payloads are Marshal-ed plain data; the variant tag is what guards a
   checkpoint from being restored into the wrong manager kind.  [save]
   is the one marshalling path: it writes into the checkpoint's own
   buffer.  The first payload sizes that buffer: an empty buffer
   overflows at once, and the payload marshalled on its own becomes it,
   so a fresh checkpoint is marshalled once.  A later payload that
   overflows doubles the buffer and is rewritten, so a payload that
   creeps up by a few bytes (a counter needing a wider encoding) costs
   one growth, not one buffer per save.  The checkpoint reads empty
   until the write completes, so an interrupted write leaves nothing
   half-restorable. *)
let make_persist ~variant ~snapshot ~restore =
  let rec write c v =
    match Marshal.to_buffer c.buf 0 (Bytes.length c.buf) v [] with
    | n -> n
    | exception Failure _ when Bytes.length c.buf = 0 ->
        c.buf <- Marshal.to_bytes v [];
        Bytes.length c.buf
    | exception Failure _ ->
        c.buf <- Bytes.create (2 * Bytes.length c.buf);
        write c v
  in
  let save c =
    let v = snapshot () in
    c.len <- 0;
    c.variant <- variant;
    c.len <- write c v
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
        if c.len > 0 then begin
          if c.variant <> variant then
            invalid_arg
              (Printf.sprintf
                 "Manager.restore: checkpoint for %S, manager is %S" c.variant
                 variant);
          restore (Marshal.from_bytes c.buf 0)
        end);
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
