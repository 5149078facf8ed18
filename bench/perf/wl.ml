(* The shape every workload of the benchmark shares.

   A workload is a closed-loop batch job: a round is a fixed amount of
   work whose next unit starts when the previous one finishes.  A run is
   a fixed number of rounds, never a time budget, so a change and its
   parent always do equal work. *)

type round = {
  units : float;  (** Work units completed in the measured part. *)
  seconds : float;  (** Host wall time of the measured part. *)
  attempted : int;
  failed : int;
  outputs : string;
      (** Fingerprint of the round's simulated outputs.  Every round of
          a run does the same work on the same inputs, so it must
          repeat exactly. *)
}

type timing = {
  untraced_s : float;  (** The main pass with tracing off. *)
  traced_s : float;  (** The same pass traced. *)
  attributed_s : float;  (** Its top-level span time. *)
}

type traced = {
  metrics : (string * float) list;  (** Per-layer values of this section. *)
  throughput : float;
      (** Work units per second of the workload's round, tracing off,
          best of two. *)
  timing : timing;  (** Of the section's main pass. *)
  t_attempted : int;
  t_failed : int;
  same_outputs : bool;
      (** The traced pass reproduced the untraced pass's outputs
          byte for byte. *)
  report : string list;  (** Extra lines for the human-readable output. *)
}

type t = {
  name : string;
  rounds : int;
      (** Rounds of a run at {!Catalog.run_seconds}, calibrated once so
          the run measures about that long on the reference host. *)
  set_up : unit -> unit;
      (** The cold set-up step a fresh process pays before the first
          round; timed in child processes for [setup_s]. *)
  prepare : unit -> (unit -> round) * (string * bool) list;
      (** Build inputs and warm every cache, then return the round
          function and the run's fixed correctness checks (digest pins
          and the like). *)
  traced : unit -> traced;
      (** The traced section of this workload, run by every traced
          run. *)
}

(* Seed of the [i]-th input of a run: a pure function of the run seed
   (SplitMix-style mixing, as the chaos campaigns derive cell seeds). *)
let mix_seed seed i =
  Int64.add
    (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (i + 1)))
    (Int64.mul 0xBF58476D1CE4E5B9L (Int64.of_int (seed + 1)))

let agg aggs name = List.find_opt (fun a -> a.Tracer.name = name) aggs

(* Mean of a span's calls, in the given unit (1e9 = ns, 1e6 = us, …);
   0 when the span never ran. *)
let mean_of aggs name scale =
  match agg aggs name with
  | Some a -> a.Tracer.total_s *. scale /. float_of_int a.Tracer.calls
  | None -> 0.

let total_of aggs name =
  match agg aggs name with Some a -> a.Tracer.total_s | None -> 0.

(* Percentile of a span's durations from its fine histogram, in the
   given unit. *)
let pct_of aggs name p scale =
  match agg aggs name with
  | Some { Tracer.hist = Some h; _ } -> Fine_hist.percentile h p *. scale /. 1e9
  | _ -> 0.

let bytes_of aggs name =
  match agg aggs name with Some a -> a.Tracer.bytes_per_call | None -> 0.

(* Counter values of the observability layer by name (0 when absent). *)
let counter name =
  match Spectr_obs.Counters.by_name name with Some v -> float_of_int v | None -> 0.

(* Run [f] with the observability layer on and zeroed, leaving it off. *)
let with_obs f =
  Spectr_obs.enable ();
  Spectr_obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Spectr_obs.reset ();
      Spectr_obs.disable ())
    f

(* Run [f] with the span tracer on, from a clean slate. *)
let with_tracing f =
  Tracer.reset ();
  Tracer.set_enabled true;
  Fun.protect ~finally:(fun () -> Tracer.set_enabled false) f

(* A section's main pass, timed the way rounds are: [plain] and
   [traced] each return the pass's outputs and its measured seconds.
   After one warm-up they alternate, each twice from a collected heap,
   and the faster pass of each kind counts, so the tracing overhead is
   not one noisy pair.  Call inside {!with_tracing}: plain passes run
   with spans off, and the tracer ends up holding the traced passes'
   spans.  Returns the outputs of a plain and of a traced pass. *)
let time_passes ~plain ~traced =
  let run f on =
    Gc.full_major ();
    Tracer.set_enabled on;
    let top0 = Tracer.top_level_s () in
    let out, s = f () in
    (out, s, Tracer.top_level_s () -. top0)
  in
  ignore (run plain false);
  Tracer.reset ();
  let out_plain, u1, _ = run plain false in
  let out_traced, t1, a1 = run traced true in
  let _, u2, _ = run plain false in
  let _, t2, a2 = run traced true in
  ( out_plain,
    out_traced,
    {
      untraced_s = Float.min u1 u2;
      traced_s = Float.min t1 t2;
      attributed_s = (if t1 <= t2 then a1 else a2);
    } )
