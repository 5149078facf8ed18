(** The systematic design flow of §6, as an executable pipeline.

    For each subsystem (Step 2's "identify the minimal subsystems"):
    excite the simulated platform with staircase inputs running the
    identification microbenchmark (Step 5), standardize the data, fit an
    ARX model and cross-validate it (R² ≥ 0.8 gate of Step 2/§6), realize
    it in state space, then design one LQG gain set per ⟨goal,
    condition⟩ pair (Steps 6–7) and run the robustness gate (Step 8).

    The same entry points power the scalability experiments: Figure 5
    (model accuracy 2×2 vs 10×10), Figure 15 (residual autocorrelation
    2×2 / 4×2 / 10×10). *)

open Spectr_control
open Spectr_sysid
module Platform_desc = Spectr_platform.Platform_desc

type subsystem =
  | Big_2x2  (** Inputs (big freq GHz, big cores) ↦ (QoS rate, big power). *)
  | Little_2x2
      (** Inputs (little freq, little cores) ↦ (little GIPS, little
          power); background load keeps the cluster busy during the
          experiment. *)
  | Fs_4x2
      (** All four cluster knobs ↦ (QoS rate, chip power) — the paper's
          full-system comparison controller. *)
  | Large_10x10
      (** 8 per-core idle-insertion knobs + 2 cluster frequencies ↦
          8 per-core GIPS + 2 cluster powers (Figure 4, right). *)
  | Cluster_2x2 of Platform_desc.t * int
      (** One cluster of an arbitrary platform description: (freq GHz,
          cores) ↦ (QoS rate | cluster GIPS, cluster power) — the
          description-driven generalization of [Big_2x2]/[Little_2x2].
          The host cluster is identified alone (QoS output), secondaries
          under background load (GIPS output); the excitation spans the
          middle of the cluster's own DVFS table.  The memo key includes
          the description (two platforms sharing a cluster name are
          distinct subsystems — {!subsystem_name} carries the platform
          digest). *)

val subsystem_name : subsystem -> string

val is_reference_platform : Platform_desc.t -> bool
(** Digest equality with [Platform_desc.exynos5422] — true for the
    built-in and for any CSV round-trip of it. *)

val cluster_subsystem : Platform_desc.t -> int -> subsystem
(** The 2×2 subsystem of one cluster of a description: [Big_2x2] /
    [Little_2x2] when the description is the reference Exynos (keeping
    their memo keys), [Cluster_2x2] otherwise. *)

type identified = {
  subsystem : subsystem;
  model : Arx.model;
  statespace : Statespace.t;
  input_channels : Mimo.channel array;
      (** Physical channel descriptions (offset/scale from the experiment
          operating point, saturation from the platform limits). *)
  output_channels : Mimo.channel array;
  report : Validation.report;  (** Cross-validation on held-out data. *)
  dataset : Dataset.t;  (** The standardized identification dataset. *)
}

val identify :
  ?seed:int64 -> ?length:int -> ?order:int -> subsystem -> identified
(** Run the identification experiment on a fresh simulated SoC running
    the microbenchmark.  [length] is the number of 50 ms periods
    (default 1200: 60 simulated seconds); [order] is na = nb (default
    2).

    Memoized per process (single-flight, keyed by the full parameter
    tuple): identification is a pure function of its parameters, so
    repeated manager construction — thousands of chaos-campaign cells,
    every parallel bench task — pays for each distinct experiment once.
    The returned record is immutable; treat it as shared. *)

type goal = {
  label : string;  (** Gain-set name, e.g. ["qos"]. *)
  q_y : float array;  (** Output-priority weights (Tracking Error Cost). *)
}

val design_gains :
  ?r_u:float array ->
  identified ->
  goal list ->
  (Lqg.gains list, string) result
(** One LQG gain set per goal (Step 7).  [r_u] defaults to the paper's
    2:1 frequency-over-cores effort costs, extended cyclically for wider
    input vectors.  Fails with a message naming the goal when a design
    does not come out robustly stable under the paper's uncertainty
    guardbands (Step 8).  Goals are designed and gated in order on the
    calling domain, and the first failing goal's [Error] is returned. *)

val design_gains_for :
  ?r_u:float array ->
  ?seed:int64 ->
  ?length:int ->
  ?order:int ->
  subsystem ->
  goal list ->
  (Lqg.gains list, string) result
(** Memoized {!identify} + {!design_gains}: the gain sets for a
    (subsystem, seed, length, order, goals, r_u) key are designed once
    per process and shared read-only afterwards — the first manager of a
    variant pays the LQG/robustness pipeline, every later construction
    (chaos cells, batch bench arenas) gets the identical list back.
    Defaults match {!identify}. *)

val build_mimo :
  identified -> gains:Lqg.gains list -> initial:string -> refs:float array -> Mimo.t
(** Assemble the runtime leaf controller from an identification result
    and designed gain sets (Step 9). *)
