(* Reference FDIR detector and sensor/actuator guard for the
   differential tests: the original hand-rolled implementations — one
   streak array and one stage array per evidence channel, a
   closure-taking classifier, and field-by-field watchdog streaks —
   kept here in compact form, with the guard's actuator side counting
   one verdict per control period.  They share no counter code with the
   library's {!Spectr.Persistence} bank, so pinning {!Spectr.Fdir} and
   {!Spectr.Guarded} to them compares two independent implementations.
   Both log through the same observability counters and decision log
   as the library layers.  Checkpoints are deep copies (each module's
   [copy]). *)

module Obs = Spectr_obs

module Fdir = struct
  let c_transient = Obs.Counters.counter "fdir.transient_verdicts"
  let c_permanent = Obs.Counters.counter "fdir.permanent_verdicts"
  let c_cleared = Obs.Counters.counter "fdir.cleared_verdicts"
  let quiet = 0
  let flagged = 1
  let latched = 2

  type t = {
    k : int;
    host : int;
    transient_ticks : int;
    permanent_ticks : int;
    innovation_threshold : float;
    pow_zero : int array;
    ips_zero : int array;
    mutable qos_zero : int;
    act_bad : int array;
    innov_high : int array;
    pow_stage : int array;
    mutable qos_stage : int;
    act_stage : int array;
    innov_stage : int array;
    mutable pending : Spectr.Fdir.finding list;
  }

  let copy t =
    {
      t with
      pow_zero = Array.copy t.pow_zero;
      ips_zero = Array.copy t.ips_zero;
      act_bad = Array.copy t.act_bad;
      innov_high = Array.copy t.innov_high;
      pow_stage = Array.copy t.pow_stage;
      act_stage = Array.copy t.act_stage;
      innov_stage = Array.copy t.innov_stage;
    }

  let create ~k ~host =
    {
      k;
      host;
      transient_ticks = 6;
      permanent_ticks = 60;
      innovation_threshold = 4.0;
      pow_zero = Array.make k 0;
      ips_zero = Array.make k 0;
      qos_zero = 0;
      act_bad = Array.make k 0;
      innov_high = Array.make k 0;
      pow_stage = Array.make k quiet;
      qos_stage = quiet;
      act_stage = Array.make k quiet;
      innov_stage = Array.make k quiet;
      pending = [];
    }

  let log_verdict ~channel ~verdict =
    (match verdict with
    | "transient" -> Obs.Counters.incr c_transient
    | "permanent" -> Obs.Counters.incr c_permanent
    | _ -> Obs.Counters.incr c_cleared);
    if Obs.enabled () then
      Obs.Decision_log.record (Obs.Decision_log.Fdir { channel; verdict })

  let classify t ~channel ~streak ~stage ~set_stage ~isolate =
    if stage <> latched then begin
      if streak >= t.permanent_ticks then begin
        set_stage latched;
        log_verdict ~channel ~verdict:"permanent";
        match isolate () with
        | None -> ()
        | Some f -> t.pending <- f :: t.pending
      end
      else if streak >= t.transient_ticks then begin
        if stage = quiet then begin
          set_stage flagged;
          log_verdict ~channel ~verdict:"transient"
        end
      end
      else if streak = 0 && stage = flagged then begin
        set_stage quiet;
        log_verdict ~channel ~verdict:"cleared"
      end
    end

  let bump streak hit = if hit then streak + 1 else 0

  let observe t ~qos ~powers ~ips =
    for i = 0 to t.k - 1 do
      t.pow_zero.(i) <- bump t.pow_zero.(i) (powers.(i) = 0.);
      t.ips_zero.(i) <- bump t.ips_zero.(i) (ips.(i) = 0.)
    done;
    t.qos_zero <- bump t.qos_zero (qos = 0.);
    for i = 0 to t.k - 1 do
      classify t
        ~channel:("power" ^ string_of_int i)
        ~streak:t.pow_zero.(i) ~stage:t.pow_stage.(i)
        ~set_stage:(fun s -> t.pow_stage.(i) <- s)
        ~isolate:(fun () ->
          let executing =
            if i = t.host then t.qos_zero < t.permanent_ticks
            else t.ips_zero.(i) < t.permanent_ticks
          in
          if executing then Some (Spectr.Fdir.Power_sensor_down i)
          else Some (Spectr.Fdir.Cluster_down i))
    done;
    classify t ~channel:"qos" ~streak:t.qos_zero ~stage:t.qos_stage
      ~set_stage:(fun s -> t.qos_stage <- s)
      ~isolate:(fun () ->
        if t.pow_zero.(t.host) >= t.permanent_ticks then None
        else Some Spectr.Fdir.Qos_sensor_down)

  let note_actuation t ~cluster ~ok =
    t.act_bad.(cluster) <- bump t.act_bad.(cluster) (not ok);
    classify t
      ~channel:("dvfs" ^ string_of_int cluster)
      ~streak:t.act_bad.(cluster) ~stage:t.act_stage.(cluster)
      ~set_stage:(fun s -> t.act_stage.(cluster) <- s)
      ~isolate:(fun () -> Some (Spectr.Fdir.Dvfs_latched cluster))

  let note_innovation t ~cluster ~norm =
    t.innov_high.(cluster) <-
      bump t.innov_high.(cluster) (norm > t.innovation_threshold);
    classify t
      ~channel:("model" ^ string_of_int cluster)
      ~streak:t.innov_high.(cluster) ~stage:t.innov_stage.(cluster)
      ~set_stage:(fun s -> t.innov_stage.(cluster) <- s)
      ~isolate:(fun () -> None)

  let poll t =
    let p = List.rev t.pending in
    t.pending <- [];
    p

  let residual_flagged t ~cluster = t.innov_stage.(cluster) <> quiet
end

module Guarded = struct
  let c_interventions = Obs.Counters.counter "guard.interventions"
  let c_trips = Obs.Counters.counter "guard.trips"
  let g_fallback_ticks = Obs.Counters.gauge "guard.fallback_ticks"
  let h_fallback_span = Obs.Histogram.histogram "guard.fallback_span_ticks"

  type channel = {
    cfg : Spectr.Guarded.channel_thresholds;
    mutable last_good : float;
    mutable have_good : bool;
    mutable suspects : int;
    mutable suspect_value : float;
    mutable last_raw : float;
    mutable same_streak : int;
    mutable masked : bool;
  }

  let make_channel cfg =
    {
      cfg;
      last_good = 0.;
      have_good = false;
      suspects = 0;
      suspect_value = nan;
      last_raw = nan;
      same_streak = 0;
      masked = false;
    }

  let channel_filter ch v =
    if ch.masked then (0., true)
    else
      let cfg = ch.cfg in
      if Float.is_finite v && v = ch.last_raw then
        ch.same_streak <- ch.same_streak + 1
      else ch.same_streak <- 1;
      ch.last_raw <- v;
      let accept value =
        ch.last_good <- value;
        ch.have_good <- true;
        ch.suspects <- 0;
        (value, true)
      in
      let reject () =
        ( (if ch.have_good then ch.last_good
           else Float.max cfg.Spectr.Guarded.lo (Float.min cfg.hi 0.)),
          false )
      in
      if not (Float.is_finite v) then reject ()
      else if v < cfg.lo || v > cfg.hi then reject ()
      else if ch.same_streak >= cfg.stuck_count then reject ()
      else if ch.have_good && abs_float (v -. ch.last_good) > cfg.max_step
      then begin
        if ch.suspects > 0 && abs_float (v -. ch.suspect_value) <= cfg.max_step
        then ch.suspects <- ch.suspects + 1
        else ch.suspects <- 1;
        ch.suspect_value <- v;
        if ch.suspects >= cfg.suspect_limit then accept v else reject ()
      end
      else accept v

  type t = {
    config : Spectr.Guarded.thresholds;
    qos_ch : channel;
    power_chs : channel array;
    mutable sensor_bad_streak : int;
    mutable actuator_bad_streak : int;
    mutable good_streak : int;
    mutable is_degraded : bool;
    mutable spans : (float * float option) list;
    mutable substituted : int;
    mutable total : int;
    mutable fb_ticks : int;
    mutable span_ticks : int;
    mutable period_now : float;
    mutable period_prev : int;
    mutable period_bad : bool;
  }

  let copy t =
    let copy_channel ch = { ch with masked = ch.masked } in
    {
      t with
      qos_ch = copy_channel t.qos_ch;
      power_chs = Array.map copy_channel t.power_chs;
    }

  let create ~clusters =
    let config = Spectr.Guarded.thresholds in
    {
      config;
      qos_ch = make_channel config.qos;
      power_chs = Array.init clusters (fun _ -> make_channel config.power);
      sensor_bad_streak = 0;
      actuator_bad_streak = 0;
      good_streak = 0;
      is_degraded = false;
      spans = [];
      substituted = 0;
      total = 0;
      fb_ticks = 0;
      span_ticks = 0;
      period_now = nan;
      period_prev = 0;
      period_bad = false;
    }

  let set_power_masked t ~cluster on =
    let ch = t.power_chs.(cluster) in
    if ch.masked <> on then begin
      ch.masked <- on;
      ch.suspects <- 0;
      ch.same_streak <- 0;
      ch.last_raw <- nan;
      ch.have_good <- false
    end

  let update_watchdog t ~now =
    let c = t.config in
    if
      t.sensor_bad_streak >= c.trip_count
      || t.actuator_bad_streak >= c.trip_count
    then begin
      if not t.is_degraded then begin
        t.is_degraded <- true;
        t.good_streak <- 0;
        t.spans <- (now, None) :: t.spans;
        Obs.Counters.incr c_trips;
        if Obs.enabled () then
          Obs.Decision_log.record
            (Obs.Decision_log.Guard_fallback { entered = true })
      end
    end
    else if t.is_degraded && t.good_streak >= c.recover_count then begin
      t.is_degraded <- false;
      t.sensor_bad_streak <- 0;
      t.actuator_bad_streak <- 0;
      (match t.spans with
      | (enter, None) :: rest -> t.spans <- (enter, Some now) :: rest
      | _ -> ());
      Obs.Histogram.observe h_fallback_span t.span_ticks;
      t.span_ticks <- 0;
      if Obs.enabled () then
        Obs.Decision_log.record
          (Obs.Decision_log.Guard_fallback { entered = false })
    end

  (* Returns (qos, powers, healthy), like the library's [filtered]. *)
  let filter t ~now ~qos ~powers =
    t.total <- t.total + 1;
    let qos, qos_ok = channel_filter t.qos_ch qos in
    let out = Array.make (Array.length powers) 0. in
    let all_ok = ref qos_ok in
    Array.iteri
      (fun i ch ->
        let v, ok = channel_filter ch powers.(i) in
        out.(i) <- v;
        all_ok := !all_ok && ok)
      t.power_chs;
    let healthy = !all_ok in
    if not healthy then begin
      t.substituted <- t.substituted + 1;
      Obs.Counters.incr c_interventions
    end;
    if healthy then begin
      t.sensor_bad_streak <- 0;
      if t.actuator_bad_streak = 0 then t.good_streak <- t.good_streak + 1
    end
    else begin
      t.sensor_bad_streak <- t.sensor_bad_streak + 1;
      t.good_streak <- 0
    end;
    update_watchdog t ~now;
    if t.is_degraded then begin
      t.fb_ticks <- t.fb_ticks + 1;
      t.span_ticks <- t.span_ticks + 1;
      Obs.Counters.set g_fallback_ticks (float_of_int t.fb_ticks)
    end;
    (qos, out, healthy)

  (* One verdict per control period (the readbacks sharing [now]): the
     streak is the previous period's plus one once any readback of this
     period mismatched, zero while all of them obeyed. *)
  let note_actuation t ~now ~ok =
    if now <> t.period_now then begin
      t.period_now <- now;
      t.period_prev <- t.actuator_bad_streak;
      t.period_bad <- false
    end;
    if ok then (if not t.period_bad then t.actuator_bad_streak <- 0)
    else if not t.period_bad then begin
      t.period_bad <- true;
      t.actuator_bad_streak <- t.period_prev + 1;
      t.good_streak <- 0
    end;
    update_watchdog t ~now
end
