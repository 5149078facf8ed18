(** Evaluation metrics of §5.1: per-phase steady-state error (the bars of
    Figure 14) and settling time after reference changes.

    Sign convention follows the paper: error = reference − measured, as a
    percentage of the reference.  "Negative values indicate that the
    power/QoS exceeds the reference value, positive values indicate power
    savings or failure to meet QoS." *)

open Spectr_platform

type phase_metrics = {
  phase_name : string;
  qos_error_pct : float;  (** Steady-state QoS error (% of reference). *)
  power_error_pct : float;
      (** Steady-state power error vs the phase envelope (%). *)
  power_settling_s : float option;
      (** Time for chip power to settle within 5 % of the envelope after
          the phase starts; [None] when it never settles. *)
  compliance_time_s : float option;
      (** Time until chip power drops to (and stays at or under) the
          envelope — the §5.1.1 responsiveness comparison after a
          thermal-emergency reference drop.  [None] when the phase never
          becomes compliant. *)
  energy_j : float;  (** Chip energy over the phase (J). *)
  energy_per_heartbeat_j : float;
      (** Energy efficiency: joules per heartbeat of QoS work done —
          the "meet QoS while minimizing energy" goal of §4.2; [infinity]
          when no heartbeat was delivered. *)
}

val power_allowance : float
(** Measurement allowance on the envelope used by {!recovery_time} and
    the compliance-time metric: power ≤ envelope × [power_allowance]
    (1.02) counts as compliant.  A metrology tolerance for sensor
    quantization and actuation lag — intentionally tighter than the 5 %
    safety guardband of [Spectr_chaos.Invariants.limits], which
    answers a different question (safety margin, not regulation
    quality). *)

val per_phase : trace:Trace.t -> config:Scenario.config -> phase_metrics list
(** Steady-state errors use the last 40 % of each phase's samples.
    Phases whose duration rounds to zero controller periods record no
    samples and are omitted from the result.

    The power metrics honor the trace's {e per-tick} [envelope] column:
    a phase whose envelope steps mid-phase (chaos fault windows, fleet
    cap re-budgets) is judged tick by tick against the envelope in force
    at each sample.  The power error of a phase with a constant envelope
    divides by that envelope itself rather than by the tail-mean
    envelope, which can round differently. *)

val recovery_time :
  envelope:float -> dt:float -> after:int -> float array -> float option
(** Fault-recovery metric: seconds from sample index [after] (e.g. a
    fault's onset or clearance) until chip power drops to — and stays at
    or under — the envelope ({!power_allowance}) for the rest of the
    slice.
    [None] when power never re-complies. *)

val compliance_time_series :
  envelope:float array -> dt:float -> float array -> float option
(** The compliance-time metric of {!per_phase}: first time from which
    power stays at or under [envelope.(i) × ]{!power_allowance} for the
    rest of the slice.  [Some 0.] when the slice never violates; [None]
    when the last sample still violates (compliance was never
    sustained).  Raises [Invalid_argument] on a length mismatch. *)

val pp_phase_metrics : Format.formatter -> phase_metrics -> unit

val qos_of : phase_metrics list -> string -> float
(** QoS error of the named phase.  Raises [Invalid_argument] on a bad
    name, naming both the missing phase and the phases available — a
    bench-table failure must be diagnosable from the message alone. *)

val power_of : phase_metrics list -> string -> float
