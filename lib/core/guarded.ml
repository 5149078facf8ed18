module Obs = Spectr_obs

(* Observability handles (no-ops while instrumentation is disabled). *)
let c_interventions = Obs.Counters.counter "guard.interventions"
let c_trips = Obs.Counters.counter "guard.trips"

(* How long the watchdog has held the system in open-loop fallback:
   cumulative ticks as a gauge (how much open-loop exposure this run),
   per-span tick counts as a histogram (were the individual fallbacks
   bounded?).  [guard.trips] alone cannot distinguish one 10 s fallback
   from ten 50 ms blips. *)
let g_fallback_ticks = Obs.Counters.gauge "guard.fallback_ticks"
let h_fallback_span = Obs.Histogram.histogram "guard.fallback_span_ticks"

type channel_thresholds = {
  lo : float;
  hi : float;
  max_step : float;
  stuck_count : int;
  suspect_limit : int;
}

type thresholds = {
  qos : channel_thresholds;
  power : channel_thresholds;
  trip_count : int;
  recover_count : int;
}

let thresholds =
  {
    qos = { lo = 0.2; hi = 400.; max_step = 45.; stuck_count = 8; suspect_limit = 4 };
    power = { lo = 0.02; hi = 15.; max_step = 3.; stuck_count = 8; suspect_limit = 4 };
    trip_count = 6;
    recover_count = 10;
  }

(* A channel's float memory, in an all-float record so samples are
   stored unboxed. *)
type memory = {
  mutable last_good : float;
  mutable suspect_value : float; (* last off-trend candidate level *)
  mutable last_raw : float;
}

type channel = {
  mem : memory;
  mutable have_good : bool;
  mutable suspects : int;
  mutable same_streak : int;
  mutable masked : bool;
      (* A masked channel belongs to a cluster the reconfiguration
         engine has removed from the supervised plant: its readings are
         substituted with 0.0 and always count as healthy, so a dead
         sensor cannot pin the watchdog in fallback forever after the
         plant has already been reconfigured around it. *)
}

let make_channel () =
  {
    mem = { last_good = 0.; suspect_value = nan; last_raw = nan };
    have_good = false;
    suspects = 0;
    same_streak = 0;
    masked = false;
  }

let copy_channel ch = { ch with mem = { ch.mem with last_good = ch.mem.last_good } }

(* Classify sample [src.(i)]: write the value to hand to the controller
   (always finite once a good sample has been seen) to [dst.(i)] and
   return whether it is the sample itself. *)
let channel_filter cfg ch ~src ~dst i =
  if ch.masked then begin
    dst.(i) <- 0.;
    true
  end
  else begin
    let v = src.(i) and m = ch.mem in
    (* Stuck detection: real sensors are noisy, so a long bit-identical
       streak is a fault, not a coincidence. *)
    if Float.is_finite v && v = m.last_raw then
      ch.same_streak <- ch.same_streak + 1
    else ch.same_streak <- 1;
    m.last_raw <- v;
    let ok =
      if
        (not (Float.is_finite v))
        || v < cfg.lo || v > cfg.hi
        || ch.same_streak >= cfg.stuck_count
      then false
      else if ch.have_good && abs_float (v -. m.last_good) > cfg.max_step
      then begin
        (* Off-trend but in range: a spike for a few samples, a genuine
           level shift if it persists.  Only samples that agree with the
           previous off-trend candidate count toward acceptance — a real
           shift settles at one new level, while scattered spikes
           disagree with the genuine readings between them and keep
           restarting the count, so a spike is never adopted as the new
           level. *)
        if ch.suspects > 0 && abs_float (v -. m.suspect_value) <= cfg.max_step
        then ch.suspects <- ch.suspects + 1
        else ch.suspects <- 1;
        m.suspect_value <- v;
        ch.suspects >= cfg.suspect_limit
      end
      else true
    in
    if ok then begin
      m.last_good <- v;
      ch.have_good <- true;
      ch.suspects <- 0;
      dst.(i) <- v
    end
    else
      dst.(i) <-
        (if ch.have_good then m.last_good
         else Float.max cfg.lo (Float.min cfg.hi 0.));
    ok
  end

(* The sanitized QoS, in a record of floats only: OCaml stores it flat,
   so [filter] rewrites it every period with an unboxed store, where a
   float field of a mixed record would hold a box until the next minor
   collection promoted it. *)
type filtered = { mutable qos : float }

(* The watchdog's three streaks, one {!Persistence} counter each:
   consecutive periods of sensor loss, of actuator disobedience, and of
   full health. *)
let sensor_bad = 0
let actuator_bad = 1
let good = 2

(* The actuator side's verdict on the control period in progress. *)
type period = Unseen | Obedient | Disobedient

type stamp = { mutable period_now : float }

(* Everything a checkpoint carries. *)
type state = {
  qos_ch : channel;
  power_chs : channel array; (* one per cluster, description order *)
  watchdog : Persistence.t;
  stamp : stamp; (* of the period in progress; flat, like [filtered] *)
  mutable period : period;
  mutable is_degraded : bool;
  mutable spans : (float * float option) list; (* newest first *)
  mutable substituted : int;
  mutable total : int;
  mutable fb_ticks : int; (* cumulative ticks spent in fallback *)
  mutable span_ticks : int; (* ticks of the span in progress *)
}

type t = {
  filtered : filtered; (* preallocated result buffer for [filter] *)
  powers : float array; (* per-cluster sanitized powers, owned here *)
  qos_io : float array; (* the QoS sample and its substitute, unboxed *)
  mutable s : state;
}

let create ~clusters () =
  if clusters < 1 then invalid_arg "Guarded.create: clusters < 1";
  {
    filtered = { qos = 0. };
    powers = Array.make clusters 0.;
    qos_io = [| 0. |];
    s =
      {
        qos_ch = make_channel ();
        power_chs = Array.init clusters (fun _ -> make_channel ());
        watchdog = Persistence.create 3;
        stamp = { period_now = nan };
        period = Unseen;
        is_degraded = false;
        spans = [];
        substituted = 0;
        total = 0;
        fb_ticks = 0;
        span_ticks = 0;
      };
  }

let clusters t = Array.length t.s.power_chs
let powers t = t.powers

let power_channel t ~who ~cluster =
  if cluster < 0 || cluster >= clusters t then
    invalid_arg ("Guarded." ^ who ^ ": cluster");
  t.s.power_chs.(cluster)

let set_power_masked t ~cluster on =
  let ch = power_channel t ~who:"set_power_masked" ~cluster in
  if ch.masked <> on then begin
    ch.masked <- on;
    (* Unmasking starts the channel clean — stale pre-mask streaks must
       not trip the watchdog on the first live reading. *)
    ch.suspects <- 0;
    ch.same_streak <- 0;
    ch.mem.last_raw <- nan;
    ch.have_good <- false
  end

let degraded t = t.s.is_degraded
let substituted_samples t = t.s.substituted
let total_samples t = t.s.total
let degradation_spans t = List.rev t.s.spans

let recovery_times t =
  List.filter_map
    (function enter, Some exit -> Some (exit -. enter) | _, None -> None)
    (degradation_spans t)

let fallback_ticks t = t.s.fb_ticks

let log_fallback entered =
  if Obs.enabled () then
    Obs.Decision_log.record (Obs.Decision_log.Guard_fallback { entered })

(* Trip on a persistent problem on either path, resume only after a
   sustained run of fully healthy periods. *)
let update_watchdog t ~now =
  let s = t.s in
  let w = s.watchdog in
  if
    Persistence.streak w sensor_bad >= thresholds.trip_count
    || Persistence.streak w actuator_bad >= thresholds.trip_count
  then begin
    if not s.is_degraded then begin
      s.is_degraded <- true;
      Persistence.reset w good;
      s.spans <- (now, None) :: s.spans;
      Obs.Counters.incr c_trips;
      log_fallback true
    end
  end
  else if s.is_degraded && Persistence.streak w good >= thresholds.recover_count
  then begin
    s.is_degraded <- false;
    Persistence.reset w sensor_bad;
    Persistence.reset w actuator_bad;
    (match s.spans with
    | (enter, None) :: rest -> s.spans <- (enter, Some now) :: rest
    | _ -> ());
    Obs.Histogram.observe h_fallback_span s.span_ticks;
    s.span_ticks <- 0;
    log_fallback false
  end

(* Readbacks stamped with the same [now] form one control period, and
   the actuator side gives one verdict per period: disobedient if any
   readback mismatched.  The first mismatch counts the period at once;
   an obedient period clears the streak when the next one begins. *)
let roll_period s ~now =
  if now <> s.stamp.period_now then begin
    if s.period = Obedient then Persistence.reset s.watchdog actuator_bad;
    s.stamp.period_now <- now;
    s.period <- Unseen
  end

let filter t ~now ~qos ~powers =
  let s = t.s and f = t.filtered in
  if Array.length powers <> Array.length s.power_chs then
    invalid_arg "Guarded.filter: power reading count <> cluster count";
  s.total <- s.total + 1;
  roll_period s ~now;
  t.qos_io.(0) <- qos;
  let qos_ok =
    channel_filter thresholds.qos s.qos_ch ~src:t.qos_io ~dst:t.qos_io 0
  in
  (* [channel_filter] left the sample itself there when it passed. *)
  f.qos <- t.qos_io.(0);
  let healthy = ref qos_ok in
  for i = 0 to Array.length s.power_chs - 1 do
    if not (channel_filter thresholds.power s.power_chs.(i) ~src:powers ~dst:t.powers i)
    then healthy := false
  done;
  let healthy = !healthy in
  if not healthy then begin
    s.substituted <- s.substituted + 1;
    Obs.Counters.incr c_interventions
  end;
  Persistence.note s.watchdog sensor_bad (not healthy);
  (* A period only counts toward recovery when the actuator side is
     quiet too; note_actuation resets the streak on disobedience. *)
  Persistence.note s.watchdog good
    (healthy && Persistence.streak s.watchdog actuator_bad = 0);
  update_watchdog t ~now;
  if s.is_degraded then begin
    s.fb_ticks <- s.fb_ticks + 1;
    s.span_ticks <- s.span_ticks + 1;
    if Obs.enabled () then
      Obs.Counters.set g_fallback_ticks (float_of_int s.fb_ticks)
  end;
  f

(* Only a period turning disobedient can move the watchdog: an obedient
   readback changes neither the sensor nor the good-period streak. *)
let note_actuation t ~now ~ok =
  let s = t.s in
  roll_period s ~now;
  if ok then (if s.period = Unseen then s.period <- Obedient)
  else if s.period <> Disobedient then begin
    s.period <- Disobedient;
    Persistence.note s.watchdog actuator_bad true;
    Persistence.reset s.watchdog good;
    update_watchdog t ~now
  end

(* --- checkpoint/restore ----------------------------------------------- *)

type snapshot = state

let copy_state s =
  {
    s with
    qos_ch = copy_channel s.qos_ch;
    stamp = { period_now = s.stamp.period_now };
    power_chs = Array.map copy_channel s.power_chs;
    watchdog = Persistence.copy s.watchdog;
  }

let snapshot t = copy_state t.s

let restore t s =
  if Array.length s.power_chs <> clusters t then
    invalid_arg
      (Printf.sprintf "Guarded.restore: %d power channels, guard has %d"
         (Array.length s.power_chs) (clusters t));
  t.s <- copy_state s
