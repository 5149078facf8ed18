(** Randomized fault-campaign generation for the chaos/soak engine.

    A campaign is a pure function of an integer seed: it expands into a
    list of {!cell}s, each of which fully describes one scenario run on
    the stress profile {!phases} — manager variant, workload, an
    absolute-time fault schedule drawn from {!Spectr_platform.Faults},
    and an optional kill/restart drill.  Cells are derived independently
    (SplitMix-style seed mixing), so any single cell can be regenerated
    and replayed without generating the rest — the property the
    reproducer artifacts ({!Artifact}) rely on. *)

open Spectr_platform

(** {1 Manager variants} *)

type variant = Spectr.Variant.t =
  | Spectr_r | Spectr_g | Spectr | Mm_pow | Mm_perf | Siso | Fs
(** The manager catalogue's variants ({!Spectr.Variant.t}); parse names
    with {!Spectr.Variant.of_string}. *)

val all_variants : variant list
(** Every variant {e except} [Spectr_r], which is opt-in: adding it here
    would shift the round-robin variant assignment (and the pinned
    digests) of every existing campaign. *)

val variant_name : variant -> string
(** {!Spectr.Variant.name}: the display names of the bench harness. *)

val make_manager :
  variant ->
  Spectr.Manager.t
  * Spectr.Supervisor.t option
  * Spectr.Guarded.t option
  * Spectr.Spectr_manager.Reconfig.handle option
(** {!Spectr.Variant.make} on [Platform_desc.exynos5422], the platform
    of every chaos cell: a fresh manager plus its supervisor, guard and
    reconfiguration handles where the variant has them. *)

(** {1 Scenario shape} *)

val phases : Faults.injection list -> Spectr.Scenario.phase list
(** The stress profile of every chaos cell and of the robustness bench:
    3 s safe at 5 W, 4 s stress at 3.5 W with 16 background tasks
    (sized so the QoS reference is unachievable inside the stress
    envelope), 5 s recovery at 5 W.  The injections ride on the first
    phase, which starts at 0, so their windows are absolute times. *)

val dt : float
(** Controller period (0.05 s). *)

(** {1 Cells} *)

type kill = {
  kill_tick : int;  (** Tick before which the manager is killed. *)
  staleness : int;
      (** The replacement restores the checkpoint taken [staleness]
          ticks before the kill: 0 = exact resume (byte-identical trace
          guaranteed), > 0 = bounded-staleness resync from fresh sensor
          samples. *)
}

type cell = {
  index : int;  (** Position in the campaign. *)
  seed : int64;  (** SoC seed of the scenario run. *)
  variant : variant;
  workload : string;  (** {!Spectr_platform.Benchmarks.by_name} key. *)
  injections : Faults.injection list;  (** Absolute-time windows. *)
  kill : kill option;
}

val config_of_cell : cell -> Spectr.Scenario.config
(** Raises [Invalid_argument] on an unknown workload name. *)

(** {1 Campaign generation} *)

type spec = {
  campaign_seed : int;
  cells : int;
  variants : variant list;  (** Assigned round-robin across cells. *)
  kinds : Faults.kind list;
      (** Fault kinds drawn uniformly; a [Spike_burst] magnitude in the
          list is the {e upper bound} of a uniform magnitude draw. *)
  max_faults : int;  (** Faults per cell drawn uniformly in [1, max]. *)
  kill_prob : float;  (** Probability a cell carries a kill drill. *)
  reconfig_prob : float;
      (** Probability a cell carries a reconfiguration drill: one extra
          {e permanent} fault (a dead secondary cluster, a dead secondary
          power sensor or a latched DVFS rail) latched in the first
          third of the run.  0 (the default) draws nothing from the
          PRNG, so pre-existing campaigns keep their exact cells. *)
}

val default_spec :
  ?seed:int ->
  ?cells:int ->
  ?variants:variant list ->
  ?kinds:Faults.kind list ->
  ?max_faults:int ->
  ?kill_prob:float ->
  ?reconfig_prob:float ->
  unit ->
  spec
(** Defaults: 64 cells over {!all_variants} and every {e transient}
    fault class (spike magnitudes bounded by 8×; permanent kinds enter
    only through the reconfiguration drill), up to 3 faults per cell,
    kill drills in a quarter of the cells, no reconfiguration drills.
    Raises [Invalid_argument] on empty lists or out-of-range
    parameters. *)

val cell_of_spec : spec -> int -> cell
(** The [index]-th cell — a pure function of [(spec, index)]; equal
    arguments give equal cells.  Raises [Invalid_argument] when the
    index is outside [0, cells). *)

val generate : spec -> cell list
(** All cells, in index order. *)
