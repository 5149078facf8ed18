(* Tests for the observability layer (Spectr_obs).

   Two properties anchor this suite:

   - Determinism: with the tick-backed clock, two identical scenario
     runs produce identical counter snapshots and identical decision
     JSONL — the layer adds no nondeterminism of its own.

   - Byte-identity of the disabled path: with instrumentation off (the
     default), the instrumented pipeline produces CSVs byte-identical to
     the pinned pre-instrumentation digests, and enabling instrumentation
     never changes the trace itself. *)

open Spectr_platform
module Obs = Spectr_obs

module Scenario = Spectr.Scenario

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Every test leaves the layer disabled and empty so suites stay
   independent of execution order. *)
let with_obs f =
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.Clock.use_ticks ();
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_ticks () =
  with_obs (fun () ->
      Obs.Clock.use_ticks ();
      Obs.Clock.reset ();
      check_bool "tick source" true (Obs.Clock.is_ticks ());
      check_bool "starts at zero" true (Obs.Clock.now_ns () = 0L);
      Obs.Clock.tick ();
      Obs.Clock.tick ();
      Obs.Clock.tick ();
      (* One tick is stamped as 1 ms. *)
      check_bool "3 ticks = 3 ms" true (Obs.Clock.now_ns () = 3_000_000L);
      let t = ref 0L in
      Obs.Clock.use_monotonic (fun () ->
          t := Int64.add !t 5L;
          !t);
      check_bool "monotonic source" false (Obs.Clock.is_ticks ());
      check_bool "monotonic advances" true (Obs.Clock.now_ns () = 5L);
      check_bool "monotonic advances again" true (Obs.Clock.now_ns () = 10L))

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_counters_basic () =
  with_obs (fun () ->
      let c = Obs.Counters.counter "test.basic" in
      check_string "name" "test.basic" (Obs.Counters.name c);
      (* Disabled: recording is a no-op. *)
      Obs.Counters.incr c;
      Obs.Counters.add c 10;
      check_int "disabled is a no-op" 0 (Obs.Counters.value c);
      Obs.enable ();
      Obs.Counters.incr c;
      Obs.Counters.add c 10;
      check_int "enabled counts" 11 (Obs.Counters.value c);
      check_bool "registered lookup" true
        (Obs.Counters.by_name "test.basic" = Some 11);
      check_bool "unknown lookup" true (Obs.Counters.by_name "test.no" = None);
      check_bool "same handle for same name" true
        (Obs.Counters.counter "test.basic" == c);
      check_bool "snapshot contains it" true
        (List.mem_assoc "test.basic" (Obs.Counters.snapshot ()));
      let g = Obs.Counters.gauge "test.level" in
      Obs.Counters.set g 2.5;
      check_bool "gauge" true (Obs.Counters.gauge_value g = 2.5);
      Obs.reset ();
      check_int "reset zeroes" 0 (Obs.Counters.value c);
      check_bool "registration survives reset" true
        (Obs.Counters.by_name "test.basic" = Some 0))

let test_counters_cross_domain () =
  with_obs (fun () ->
      Obs.enable ();
      let c = Obs.Counters.counter "test.sharded" in
      let ds =
        List.init 3 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to 1000 do
                  Obs.Counters.incr c
                done))
      in
      for _ = 1 to 1000 do
        Obs.Counters.incr c
      done;
      List.iter Domain.join ds;
      check_int "shards merge on read" 4000 (Obs.Counters.value c))

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram () =
  with_obs (fun () ->
      let h = Obs.Histogram.histogram "test.lat" in
      Obs.Histogram.observe h 100;
      check_int "disabled is a no-op" 0 (Obs.Histogram.count h);
      Obs.enable ();
      Obs.Histogram.observe h 100;
      Obs.Histogram.observe h 200;
      Obs.Histogram.observe h 3000;
      check_int "count" 3 (Obs.Histogram.count h);
      check_int "max is exact" 3000 (Obs.Histogram.max_ns h);
      check_bool "mean" true (Obs.Histogram.mean_ns h = 1100.);
      (* Percentiles are bucket upper bounds (within 2x), clamped by the
         exact max. *)
      let p50 = Obs.Histogram.percentile h 50. in
      check_bool "p50 covers the median sample" true (p50 >= 200 && p50 < 400);
      check_int "p100 is the max" 3000 (Obs.Histogram.percentile h 100.);
      check_bool "p99 clamped by max" true
        (Obs.Histogram.percentile h 99. <= 3000);
      check_int "empty percentile" 0
        (Obs.Histogram.percentile (Obs.Histogram.histogram "test.empty") 50.);
      Alcotest.check_raises "quantile range"
        (Invalid_argument "Histogram.percentile") (fun () ->
          ignore (Obs.Histogram.percentile h 101.));
      Obs.reset ();
      check_int "reset zeroes" 0 (Obs.Histogram.count h))

let test_histogram_negative_rejected () =
  with_obs (fun () ->
      Obs.enable ();
      let h = Obs.Histogram.histogram "test.neg" in
      Obs.Histogram.observe h 100;
      Obs.Histogram.observe h (-5);
      Obs.Histogram.observe h (-1);
      (* Regression: a negative sample used to bump [count] without
         touching any bucket, skewing mean and percentiles forever
         after.  Rejection must be consistent: neither count, sum,
         buckets nor max move — only the dropped tally. *)
      check_int "count holds" 1 (Obs.Histogram.count h);
      check_bool "mean is the mean of recorded samples" true
        (Obs.Histogram.mean_ns h = 100.);
      check_int "max untouched" 100 (Obs.Histogram.max_ns h);
      check_int "dropped tally" 2 (Obs.Histogram.dropped h);
      (* Zero is a valid sample (bucket 0), not a rejection. *)
      Obs.Histogram.observe h 0;
      check_int "zero recorded" 2 (Obs.Histogram.count h);
      check_int "zero not dropped" 2 (Obs.Histogram.dropped h);
      Obs.reset ();
      check_int "reset clears dropped" 0 (Obs.Histogram.dropped h))

let test_histogram_percentile_edges () =
  with_obs (fun () ->
      Obs.enable ();
      (* Single sample: every percentile is that sample (p0 included —
         the rank clamps to the first recorded sample, and the exact max
         clamps the bucket bound back down). *)
      let h1 = Obs.Histogram.histogram "test.p.single" in
      Obs.Histogram.observe h1 700;
      check_int "single-sample p0" 700 (Obs.Histogram.percentile h1 0.);
      check_int "single-sample p50" 700 (Obs.Histogram.percentile h1 50.);
      check_int "single-sample p100" 700 (Obs.Histogram.percentile h1 100.);
      (* All-zero samples land in bucket 0 with upper bound 0. *)
      let h0 = Obs.Histogram.histogram "test.p.zero" in
      Obs.Histogram.observe h0 0;
      Obs.Histogram.observe h0 0;
      Obs.Histogram.observe h0 0;
      check_int "all-zero p0" 0 (Obs.Histogram.percentile h0 0.);
      check_int "all-zero p50" 0 (Obs.Histogram.percentile h0 50.);
      check_int "all-zero p100" 0 (Obs.Histogram.percentile h0 100.);
      (* p0 of a multi-bucket distribution covers the smallest sample;
         p100 is exactly the max regardless of bucket width. *)
      let h = Obs.Histogram.histogram "test.p.edges" in
      Obs.Histogram.observe h 10;
      Obs.Histogram.observe h 5000;
      check_bool "p0 covers the smallest sample" true
        (Obs.Histogram.percentile h 0. >= 10
        && Obs.Histogram.percentile h 0. < 5000);
      check_int "p100 is the exact max" 5000 (Obs.Histogram.percentile h 100.);
      Alcotest.check_raises "negative percentile"
        (Invalid_argument "Histogram.percentile") (fun () ->
          ignore (Obs.Histogram.percentile h (-1.))))

let test_time_span () =
  with_obs (fun () ->
      Obs.enable ();
      (* Tick clock: a span during which the clock ticks twice measures
         exactly 2 ms. *)
      Obs.Clock.use_ticks ();
      let h = Obs.Histogram.histogram "test.span" in
      let r =
        Obs.time h (fun () ->
            Obs.Clock.tick ();
            Obs.Clock.tick ();
            17)
      in
      check_int "result passes through" 17 r;
      check_int "one sample" 1 (Obs.Histogram.count h);
      check_int "span is 2 ticks" 2_000_000 (Obs.Histogram.max_ns h);
      (* Exceptions propagate. *)
      Alcotest.check_raises "exception passes through" (Failure "span")
        (fun () -> Obs.time h (fun () -> failwith "span")))

(* ------------------------------------------------------------------ *)
(* Decision log                                                        *)
(* ------------------------------------------------------------------ *)

let test_decision_ring () =
  with_obs (fun () ->
      Obs.enable ();
      Obs.Decision_log.set_capacity 4;
      for i = 0 to 5 do
        Obs.Decision_log.record
          (Obs.Decision_log.Rebudget
             { target = "big_power_ref"; value = float_of_int i })
      done;
      check_int "total counts every record" 6 (Obs.Decision_log.total ());
      check_int "ring retains capacity" 4 (Obs.Decision_log.length ());
      check_int "dropped counts overwrites" 2 (Obs.Decision_log.dropped ());
      (match Obs.Decision_log.entries () with
      | { Obs.Decision_log.seq = s0; _ } :: _ as es ->
          check_int "oldest retained seq" 2 s0;
          check_int "newest retained seq" 5
            (List.nth es 3).Obs.Decision_log.seq
      | [] -> Alcotest.fail "entries empty");
      check_bool "kind tally" true
        (Obs.Decision_log.kind_counts () = [ ("rebudget", 4) ]);
      Alcotest.check_raises "capacity >= 1"
        (Invalid_argument "Decision_log.set_capacity: n < 1") (fun () ->
          Obs.Decision_log.set_capacity 0))

let test_decision_jsonl_shape () =
  with_obs (fun () ->
      Obs.enable ();
      Obs.Clock.use_ticks ();
      Obs.Clock.reset ();
      Obs.Decision_log.record
        (Obs.Decision_log.Event_fired
           { event = "increaseBigPower"; controllable = true });
      Obs.Clock.tick ();
      Obs.Decision_log.record (Obs.Decision_log.Gain_switch { mode = "power" });
      Obs.Decision_log.record
        (Obs.Decision_log.Guard_fallback { entered = true });
      Obs.Decision_log.record (Obs.Decision_log.Fault { active = 2; onset = true });
      let jsonl = Obs.Decision_log.to_jsonl () in
      let lines = String.split_on_char '\n' jsonl in
      (* Trailing newline: last split element is empty. *)
      check_int "one line per decision" 5 (List.length lines);
      check_string "last element empty (trailing newline)" ""
        (List.nth lines 4);
      check_string "event line"
        "{\"seq\":0,\"t_ns\":0,\"kind\":\"event_fired\",\"event\":\"increaseBigPower\",\"controllable\":true}"
        (List.nth lines 0);
      check_string "gain-switch line stamped after one tick"
        "{\"seq\":1,\"t_ns\":1000000,\"kind\":\"gain_switch\",\"mode\":\"power\"}"
        (List.nth lines 1);
      check_string "guard line"
        "{\"seq\":2,\"t_ns\":1000000,\"kind\":\"guard_fallback\",\"entered\":true}"
        (List.nth lines 2);
      check_string "fault line"
        "{\"seq\":3,\"t_ns\":1000000,\"kind\":\"fault\",\"active\":2,\"onset\":true}"
        (List.nth lines 3))

(* JSONL escaping, pinned byte-for-byte: a hostile event name (quotes,
   backslashes, newline, a control byte) must come out as exactly one
   valid JSON line.  An unescaped quote would silently truncate every
   downstream jq pipeline, so the expected string is spelled out in
   full. *)
let test_decision_jsonl_escaping () =
  with_obs (fun () ->
      Obs.enable ();
      Obs.Clock.use_ticks ();
      Obs.Clock.reset ();
      Obs.Decision_log.record
        (Obs.Decision_log.Event_fired
           { event = "a\"b\\c\nd\te\x01f"; controllable = false });
      let jsonl = Obs.Decision_log.to_jsonl () in
      (match String.split_on_char '\n' jsonl with
      | [ line; "" ] ->
          check_string "escaped event line"
            "{\"seq\":0,\"t_ns\":0,\"kind\":\"event_fired\",\"event\":\"a\\\"b\\\\c\\nd\\u0009e\\u0001f\",\"controllable\":false}"
            line
      | lines ->
          Alcotest.failf "expected exactly one line, got %d"
            (List.length lines - 1));
      Obs.Decision_log.record
        (Obs.Decision_log.Gain_switch { mode = "qos\"}{\"" });
      match String.split_on_char '\n' (Obs.Decision_log.to_jsonl ()) with
      | [ _; line; "" ] ->
          check_string "escaped mode line"
            "{\"seq\":1,\"t_ns\":0,\"kind\":\"gain_switch\",\"mode\":\"qos\\\"}{\\\"\"}"
            line
      | lines ->
          Alcotest.failf "expected exactly two lines, got %d"
            (List.length lines - 1))

let test_disabled_record_free () =
  with_obs (fun () ->
      (* Disabled: the log accepts nothing. *)
      Obs.Decision_log.record (Obs.Decision_log.Gain_switch { mode = "qos" });
      check_int "no entries while disabled" 0 (Obs.Decision_log.total ()))

(* ------------------------------------------------------------------ *)
(* End-to-end: determinism and disabled-path byte-identity             *)
(* ------------------------------------------------------------------ *)

let short_config () =
  let cfg = Scenario.default_config Benchmarks.x264 in
  {
    cfg with
    Scenario.phases =
      List.map
        (fun ph -> { ph with Scenario.duration_s = 1.0 })
        cfg.Scenario.phases;
  }

let run_scenario_instrumented () =
  Obs.reset ();
  let manager = fst (Spectr.Spectr_manager.make ()) in
  let trace = Scenario.run ~manager (short_config ()) in
  ( Trace.to_csv trace,
    Obs.Counters.snapshot (),
    Obs.Decision_log.to_jsonl (),
    Obs.summary () )

let test_determinism () =
  with_obs (fun () ->
      (* Warm the synthesis and identification caches while still
         disabled so both instrumented runs see the same hit/miss
         sequence (and the same SoC tick counts — the identification
         experiment steps a private SoC on a cache miss). *)
      ignore (Spectr.Supervisor.synthesize ());
      ignore (Spectr.Spectr_manager.make ());
      Obs.Clock.use_ticks ();
      Obs.enable ();
      let csv1, counters1, jsonl1, summary1 = run_scenario_instrumented () in
      let csv2, counters2, jsonl2, summary2 = run_scenario_instrumented () in
      check_bool "traces identical" true (csv1 = csv2);
      check_bool "counter snapshots identical" true (counters1 = counters2);
      check_string "decision JSONL identical"
        (Digest.to_hex (Digest.string jsonl1))
        (Digest.to_hex (Digest.string jsonl2));
      check_string "summaries identical"
        (Digest.to_hex (Digest.string summary1))
        (Digest.to_hex (Digest.string summary2));
      (* The run actually exercised the instrumented paths. *)
      let nonzero name =
        match List.assoc_opt name counters1 with
        | Some v -> v > 0
        | None -> false
      in
      List.iter
        (fun name ->
          check_bool (name ^ " nonzero") true (nonzero name))
        [
          "soc.steps";
          "manager.steps";
          "manager.actuations";
          "supervisor.steps";
          "supervisor.events_fired";
          "supervisor.events_observed";
        ];
      (* Two cluster actuations per manager step. *)
      check_int "actuations = 2 * manager steps"
        (2 * List.assoc "manager.steps" counters1)
        (List.assoc "manager.actuations" counters1);
      check_bool "decisions were logged" true
        (String.length jsonl1 > 0))

(* Digests pinned before the observability layer existed: the
   instrumented pipeline, with instrumentation disabled (and even
   enabled), must still produce them byte-for-byte.  Guards the
   "disabled path is free and invisible" contract. *)
let pinned_spectr_csv = "ab3b5b5ef6ec4920c18d5f0a4117cbc1"
let pinned_mm_pow_csv = "96be8102f7bac038240ca64962ed878b"

let full_run manager =
  let config =
    { (Scenario.default_config Benchmarks.x264) with seed = Int64.of_int 42 }
  in
  Trace.to_csv (Scenario.run ~manager config)

let test_disabled_byte_identity () =
  with_obs (fun () ->
      check_bool "layer is disabled" false (Obs.enabled ());
      let csv_off = full_run (fst (Spectr.Spectr_manager.make ())) in
      check_string "SPECTR CSV matches pre-instrumentation pin"
        pinned_spectr_csv
        (Digest.to_hex (Digest.string csv_off));
      check_string "MM-Pow CSV matches pre-instrumentation pin"
        pinned_mm_pow_csv
        (Digest.to_hex
           (Digest.string
              (full_run
                 (Spectr.Mm.make_pow ~platform:Platform_desc.exynos5422 ()))));
      (* Enabling instrumentation observes without perturbing: same
         bytes with the layer on. *)
      Obs.Clock.use_ticks ();
      Obs.enable ();
      let csv_on = full_run (fst (Spectr.Spectr_manager.make ())) in
      check_bool "obs-on trace == obs-off trace" true (csv_on = csv_off))

let () =
  Alcotest.run "spectr_obs"
    [
      ("clock", [ Alcotest.test_case "tick and monotonic sources" `Quick test_clock_ticks ]);
      ( "counters",
        [
          Alcotest.test_case "registry, enable gating, reset" `Quick
            test_counters_basic;
          Alcotest.test_case "cross-domain sharding" `Quick
            test_counters_cross_domain;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "buckets, percentiles, max" `Quick test_histogram;
          Alcotest.test_case "negative samples rejected" `Quick
            test_histogram_negative_rejected;
          Alcotest.test_case "percentile edge ranks" `Quick
            test_histogram_percentile_edges;
          Alcotest.test_case "timed spans" `Quick test_time_span;
        ] );
      ( "decision-log",
        [
          Alcotest.test_case "bounded ring" `Quick test_decision_ring;
          Alcotest.test_case "JSONL shape" `Quick test_decision_jsonl_shape;
          Alcotest.test_case "JSONL escaping (pinned)" `Quick
            test_decision_jsonl_escaping;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_record_free;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "two instrumented runs identical" `Slow
            test_determinism;
          Alcotest.test_case "disabled path byte-identical (pinned)" `Slow
            test_disabled_byte_identity;
        ] );
    ]
