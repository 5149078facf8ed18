(** The full SPECTR resource manager (Figure 9 / Figure 10): one 2×2 LQG
    leaf controller per cluster, each carrying both QoS- and
    power-oriented gain sets, orchestrated by the synthesized supervisory
    controller.

    The supervisor runs every [supervisor_divisor] controller periods
    (default 2: 100 ms over a 50 ms loop, as in §5) and acts only through
    the two SCT mechanisms of §3.2 — gain scheduling and reference
    (budget) regulation. *)

val make :
  ?supervisor_divisor:int ->
  ?gain_scheduling:bool ->
  ?guards:Guarded.t ->
  ?platform:Spectr_platform.Platform_desc.t ->
  unit ->
  Manager.t * Supervisor.t
(** Returns the manager and a handle on its supervisor (for inspecting
    mode, budgets and synthesis statistics).  [gain_scheduling:false]
    builds the ablation variant whose supervisor still regulates budgets
    but never switches gains.

    [platform] (default [Platform_desc.exynos5422]) selects the platform
    description: one leaf controller per cluster, identified through
    {!Design_flow.Cluster_2x2} and supervised by the description-derived
    synthesis.  On the Exynos description the original
    [Big_2x2]/[Little_2x2] subsystems (and their memo keys) are used, so
    behaviour is bit-identical to previous releases.

    [guards] arms the graceful-degradation layer (named ["SPECTR+G"]):
    observations pass through {!Guarded.filter}, actuation readbacks
    feed {!Guarded.note_actuation}, and while {!Guarded.degraded} holds
    the manager pins the minimum-power open-loop fallback with the
    supervisor and every leaf controller frozen.  The guard must have
    been created with [clusters] equal to the platform's cluster count.
    Raises [Invalid_argument] when [supervisor_divisor < 1] or on a
    guard/platform cluster-count mismatch.

    The manager checkpoints ([persist]) under the variant tag ["SPECTR"]
    or ["SPECTR+G"], suffixed ["-nogs"] without gain scheduling and
    ["@<digest prefix>"] off the reference platform, so a checkpoint
    cannot cross variants or platforms. *)

(** {1 Degraded-mode reconfiguration (SPECTR+R)} *)

(** Handle on the reconfiguration engine of a manager built by
    {!make_reconfigurable}: the current rung of the FDIR ladder, the
    (possibly degraded) supervised description, and the live supervisor
    (which changes identity on every hot-swap — do not cache it). *)
module Reconfig : sig
  type status =
    | Nominal  (** Closed loop on the boot-time description. *)
    | Swapping
        (** Bounded open-loop window (floor actuation) while the
            re-synthesized supervisor is swapped in. *)
    | Reconfigured  (** Closed loop on a degraded description. *)
    | Fallback
        (** Permanent open-loop floor: dead host cluster, blind QoS
            sensor, or a degradation the description cannot express. *)

  val status_label : status -> string
  (** ["nominal"], ["swapping"], ["reconfigured"] or ["fallback"] — the
      strings used in [Decision_log.Reconfig] entries. *)

  type handle

  val status : handle -> status

  val reconfigurations : handle -> int
  (** Completed supervisor hot-swaps. *)

  val platform : handle -> Spectr_platform.Platform_desc.t
  (** The currently supervised description ({!status} [Reconfigured]
      implies it differs from the boot-time description). *)

  val supervisor : handle -> Supervisor.t
  (** The live supervisor.  Replaced on every hot-swap. *)

  val guard : handle -> Guarded.t

  val last_resynth_s : handle -> float
  (** CPU seconds spent synthesizing the most recent replacement
      supervisor (0 before the first reconfiguration).  Warm
      {!Synth_cache} hits make this well under a second. *)

  val excluded_clusters : handle -> int list
  (** Physical cluster indices removed from the supervised plant,
      ascending. *)
end

val make_reconfigurable :
  ?platform:Spectr_platform.Platform_desc.t ->
  unit ->
  Manager.t * Reconfig.handle
(** The self-healing variant (named ["SPECTR+R"]): {!make}'s guarded
    closed loop plus an {!Fdir} detector and a reconfiguration engine
    walking the FDIR ladder healthy → guarded → reconfigured →
    open-loop-fallback.

    On a permanent FDIR verdict the engine derives a degraded
    description ({!Spectr_platform.Platform_desc.degrade}), re-runs
    supervisor synthesis on it (warm through {!Synth_cache}), maps the
    outgoing engine state across with {!Supervisor.adopt}, and resumes
    closed-loop control after a bounded open-loop swap window of 4
    periods at floor actuation.  Surviving
    clusters keep their leaf controllers — their physics did not change.
    Dead clusters are never actuated again; live clusters whose power
    sensor died are pinned to their floor OPP; a latched DVFS rail keeps
    its cluster in the plant on a {!Spectr_platform.Platform_desc.Pin_opp}
    description.  Unrecoverable faults (dead host, blind QoS sensor)
    drop to the permanent open-loop floor.

    The manager builds its own guard (one power channel per cluster of
    [platform], reachable through {!Reconfig.guard}) — the guard is
    integral to the ladder, not optional — and runs {!make}'s default
    supervisor period with gain scheduling on.  SPECTR, SPECTR+G and
    SPECTR+R are one loop with these layers armed or not, and share one
    saved state: it lists the applied degradations, so a restore
    re-derives the supervised description from the boot one
    (re-synthesizing, warm, only when it differs from the live one) and
    resumes at any rung of the ladder.  The variant tag is ["SPECTR+R"]
    with {!make}'s suffix rule. *)
