(* Fault detection and isolation: the sensing half of the FDIR ladder
   (healthy -> guarded -> reconfigured -> open-loop-fallback).

   The detector never consults ground truth.  It watches exactly what a
   runtime daemon on real silicon could watch:

   - {e exact-zero streaks} on the power sensors, the QoS heartbeat rate
     and the per-cluster IPS aggregates.  A live cluster's power reading
     is never exactly 0.0 (uncore and leakage draw are strictly
     positive, and the SoC's multiplicative sensor noise maps nonzero to
     nonzero), so a sustained exact zero is sensor death, line dropout
     or cluster death — never physics;
   - {e actuation mismatches}: the per-cluster readback comparison the
     guarded layer already performs (requested OPP vs. applied OPP);
   - {e Kalman innovation residuals}: ‖y − C·x̂‖₂ from each cluster's
     MIMO controller ({!Mimo.last_innovation_norm}), the
     model-consistency signal that flags a plant that stopped matching
     its identified model.  Residuals corroborate and are surfaced as
     verdicts/counters, but never drive reconfiguration on their own —
     a noisy residual must not amputate a healthy cluster.

   A {!Persistence} bank turns the evidence into the two-stage verdicts
   described in fdir.mli.  Isolation — naming the failed channel —
   disambiguates with cross-channel evidence: a permanently-zero power
   sensor whose cluster still reports instruction throughput is a dead
   {e sensor}; zero power with zero throughput is a dead {e cluster}.
   With no work placed on a cluster the two are indistinguishable from
   sensors alone, and the detector deliberately errs on the safe side
   (cluster death → the cluster is removed from the supervised plant;
   losing a healthy-but-idle cluster costs capacity, never safety). *)

module Obs = Spectr_obs

let c_transient = Obs.Counters.counter "fdir.transient_verdicts"
let c_permanent = Obs.Counters.counter "fdir.permanent_verdicts"
let c_cleared = Obs.Counters.counter "fdir.cleared_verdicts"

type finding =
  | Cluster_down of int
  | Power_sensor_down of int
  | Qos_sensor_down
  | Dvfs_latched of int

let finding_channel = function
  | Cluster_down i -> "cluster" ^ string_of_int i
  | Power_sensor_down i -> "power" ^ string_of_int i
  | Qos_sensor_down -> "qos"
  | Dvfs_latched i -> "dvfs" ^ string_of_int i

(* Persistence bounds: 6 ticks (0.3 s at the 50 ms period) to a
   transient verdict, 60 (3.0 s, the detection lag quoted in
   EXPERIMENTS.md) to a permanent one; innovation residuals above 4.0
   (normalized output units) count as anomalies. *)
let transient_ticks = 6
let permanent_ticks = 60
let innovation_threshold = 4.0

(* One persistence counter per evidence channel, named after the
   evidence it counts: [pow_zero], [ips_zero], [dvfs_bad] and
   [innov_high] per cluster, [qos_zero] in the last slot.  [ips_zero]
   never classifies: it is cross-channel evidence for isolating a zero
   power reading. *)
type t = {
  k : int;
  host : int;
  bank : Persistence.t;
  (* Permanent findings awaiting {!poll}; emitted exactly once. *)
  mutable pending : finding list;
}

let[@inline] pow_zero _ i = i
let[@inline] ips_zero t i = t.k + i
let[@inline] dvfs_bad t i = (2 * t.k) + i
let[@inline] innov_high t i = (3 * t.k) + i
let[@inline] qos_zero t = 4 * t.k

let create ~k ~host () =
  if k < 1 then invalid_arg "Fdir.create: k < 1";
  if host < 0 || host >= k then invalid_arg "Fdir.create: host out of range";
  {
    k;
    host;
    bank = Persistence.create ((4 * k) + 1);
    pending = [];
  }

(* The decision-log label of counter [c] — built only when a verdict
   fires, so the tick path never formats a string. *)
let channel_label t c =
  if c = qos_zero t then "qos"
  else
    (match c / t.k with 0 -> "power" | 2 -> "dvfs" | _ -> "model")
    ^ string_of_int (c mod t.k)

let log_verdict t c counter verdict =
  Obs.Counters.incr counter;
  if Obs.enabled () then
    Obs.Decision_log.record
      (Obs.Decision_log.Fdir { channel = channel_label t c; verdict })

(* Advance counter [c]'s stage; count (and log) the verdict it fires. *)
let advance t c =
  let change =
    Persistence.transition t.bank c ~onset:transient_ticks
      ~latch:permanent_ticks
  in
  (match change with
  | Persistence.Unchanged -> ()
  | Raised -> log_verdict t c c_transient "transient"
  | Latched -> log_verdict t c c_permanent "permanent"
  | Cleared -> log_verdict t c c_cleared "cleared");
  change

let emit t f = t.pending <- f :: t.pending
let latched_streak t c = Persistence.streak t.bank c >= permanent_ticks

let observe t ~qos ~powers ~ips =
  if Array.length powers <> t.k then invalid_arg "Fdir.observe: powers length";
  if Array.length ips <> t.k then invalid_arg "Fdir.observe: ips length";
  let b = t.bank in
  for i = 0 to t.k - 1 do
    Persistence.note b (pow_zero t i) (powers.(i) = 0.);
    Persistence.note b (ips_zero t i) (ips.(i) = 0.)
  done;
  Persistence.note b (qos_zero t) (qos = 0.);
  for i = 0 to t.k - 1 do
    match advance t (pow_zero t i) with
    | Latched ->
        (* Dead sensor vs. dead cluster: does anything else prove the
           cluster is still executing?  The host's execution witness is
           the heartbeat rate (its IPS aggregate is not materialized on
           the hot path); secondaries witness through their IPS sum. *)
        let witness = if i = t.host then qos_zero t else ips_zero t i in
        emit t
          (if latched_streak t witness then Cluster_down i
           else Power_sensor_down i)
    | _ -> ()
  done;
  match advance t (qos_zero t) with
  (* Host power also permanently zero means the host cluster is dead —
     the power channel's finding already covers it. *)
  | Latched when not (latched_streak t (pow_zero t t.host)) ->
      emit t Qos_sensor_down
  | _ -> ()

let check_cluster t ~who cluster =
  if cluster < 0 || cluster >= t.k then
    invalid_arg ("Fdir." ^ who ^ ": cluster")

let note_actuation t ~cluster ~ok =
  check_cluster t ~who:"note_actuation" cluster;
  Persistence.note t.bank (dvfs_bad t cluster) (not ok);
  match advance t (dvfs_bad t cluster) with
  | Latched -> emit t (Dvfs_latched cluster)
  | _ -> ()

(* Residuals corroborate only: their verdicts are counted and logged,
   never turned into findings. *)
let note_innovation t ~cluster ~norm =
  check_cluster t ~who:"note_innovation" cluster;
  Persistence.note t.bank (innov_high t cluster) (norm > innovation_threshold);
  ignore (advance t (innov_high t cluster) : Persistence.change)

let poll t =
  match t.pending with
  | [] -> []
  | pending ->
      t.pending <- [];
      List.rev pending

let residual_flagged t ~cluster =
  check_cluster t ~who:"residual_flagged" cluster;
  Persistence.flagged t.bank (innov_high t cluster)

(* --- checkpoint/restore ----------------------------------------------- *)

type saved = t

let saved t = { t with bank = Persistence.copy t.bank }

let copy_state ~src ~dst =
  Persistence.blit ~src:src.bank dst.bank;
  dst.pending <- src.pending

let copy t s ~restore =
  if s.k <> t.k then invalid_arg "Fdir.copy: saved dimension mismatch";
  if restore then copy_state ~src:s ~dst:t else copy_state ~src:t ~dst:s
