(** Ramadge–Wonham supervisor synthesis (the "Synthesis" box of Fig. 11).

    Given a plant model [G] and an intended-behaviour specification [E],
    {!supcon} computes the {e supremal controllable and non-blocking}
    sub-behaviour of [G ‖ E]: the least restrictive supervisor that
    - never disables an uncontrollable event the plant can generate
      (controllability, §4.3.4),
    - never paints the system into a corner from which no marked state is
      reachable (non-blocking),
    - never enters a forbidden (✗) state of the specification.

    The algorithm is the classical fixpoint of the paper's §4.3.4: the
    trimming pass and the uncontrollable-state extension pass "must be run
    successively and iteratively, until they return the same result". *)

type stats = {
  product_states : int;  (** Reachable states of G ‖ E before pruning. *)
  removed_uncontrollable : int;
      (** States removed because an uncontrollable plant event escaped the
          good region. *)
  removed_blocking : int;  (** States removed by trimming passes. *)
  removed_forbidden : int;  (** Forbidden states removed up front. *)
  iterations : int;  (** Fixpoint rounds until stable. *)
}

val pp_stats : Format.formatter -> stats -> unit

type error =
  | Empty_supervisor
      (** The initial state itself is uncontrollably bad: no supervisor
          satisfying the specification exists. *)

val supcon :
  plant:Automaton.t ->
  spec:Automaton.t ->
  (Automaton.t * stats, error) result
(** [supcon ~plant ~spec] synthesizes the supervisor.  Product states
    are named ["qG.qE"] as in Fig. 12d.  The returned automaton is both
    the supervisor realization and the closed-loop behaviour (standard
    for state-feedback RW supervisors); it is guaranteed controllable
    w.r.t. [plant], non-blocking and trim — properties re-checked by
    {!Verify.controllable} and {!Verify.nonblocking} in the test-suite.

    One sequential engine, on the calling domain, serves this,
    {!supcon_modular} and {!product} (hence {!Compose.pair}), in three
    phases: it explores the reachable product, runs the fixpoint over
    it, and extracts the kept states.  Product states are numbered in
    BFS discovery order (each component's row in event-id order, an
    event handled by its lowest-indexed owner), and each fixpoint pass
    computes a unique complete fixpoint, so the result — supervisor
    states, names, transitions, {!Automaton.structural_digest} and
    {!stats} — is a function of the inputs alone.

    {b Memory.}  The product is one key, one row-end-and-flags word and
    one 32-bit word per transition, held in chunks that are never
    copied; the
    blocking pass's predecessors cover only the transitions inside the
    region left after the first uncontrollable pass.  Besides the
    product, each call builds a dense step table for every component
    that is some event's non-first owner (in [supcon], the spec):
    [n_c × |Σ_c|] words for a component with [n_c] states and alphabet
    [Σ_c], so each such owner is consulted with one array read. *)

val product :
  context:string -> name:string -> Automaton.t array -> Automaton.t
(** [product ~context ~name comps] is the reachable synchronous product
    of [comps], named [name]: the engine's exploration, with nothing
    pruned.  States are numbered as {!supcon} numbers them and named by
    an {!Automaton.Product} over [comps]; a state is marked iff every
    component is, and forbidden iff any is.  {!Compose.pair} is this on
    two components.  Raises [Invalid_argument], prefixed with
    [context], on an alphabet clash or when the product overflows the
    engine's index range. *)

val supcon_modular :
  ?jobs:int ->
  plants:Automaton.t list ->
  spec:Automaton.t ->
  unit ->
  (Automaton.t * stats, error) result
(** Modular synthesis: the product of all plant components and the spec
    is built {e jointly}, on the fly — only spec-feasible joint states
    are ever materialized, so a [3^k]-state unconstrained composition
    that the spec confines to a sliver never exists in memory.  The
    result equals [supcon ~plant:(Compose.all plants) ~spec] up to state
    naming (a joint state is named by one flat join of all the
    components' names, an {!Automaton.Product} over the plants and the
    spec, rather than the nested pairwise join): same state count, same
    transition structure
    ({!Automaton.isomorphic}), same {!stats}.  Run by the same engine as
    {!supcon}; every plant component except the first that shares an
    event with an earlier one gets a step table too.

    [jobs] is ignored: the engine is sequential.  The argument is kept
    only until the benchmark's caller stops passing it, and will be
    removed.  Raises [Invalid_argument] when [plants] is empty or the
    joint index space overflows the int key range. *)
