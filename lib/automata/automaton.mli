(** Deterministic finite automata — the plant, specification and supervisor
    models of supervisory control theory.

    An automaton is the 5-tuple ⟨Q, Σ, δ, i, M⟩ of the paper's §4.3.1:
    states Q, alphabet Σ, partial transition function δ : Q×Σ → Q, initial
    state i and marked (accepted) states M.  We additionally carry a set of
    {e forbidden} states, the ✗-marked states of specifications
    (Fig. 12c): synthesis must prune them and everything that uncontrollably
    reaches them.

    {b Representation.}  The core is index-native: states are dense ints,
    the transition function is stored in CSR form — per-state rows of
    32-bit transition {e words} — and every algorithm (composition,
    synthesis, verification) runs on ints only.  The words are the
    product engine's own layout: [(target lsl b) lor rank], where
    [rank] is the event's position in {!events} (the alphabet by
    ascending {!Event.id}) and [b] is {!rank_bits}, the least width that
    holds a rank.  A row is sorted by rank, so by event id, and a
    transition costs 4 bytes.  The target takes the other [32 - b]
    bits, so an automaton has at most [2^(32 - b)] states: {!create}
    and {!of_csr} refuse more, and the product engine refuses to
    explore past it.

    State {e names} are a boundary concern: a product built by an
    algorithm ({!of_csr}) describes its names by its components and one
    key per state, and only writes the strings when a name-based
    accessor is first used, so a 100k-state product that is immediately
    pruned never pays for 100k escaped name strings. *)

type t

type transition = { src : string; event : Event.t; dst : string }

(** How {!of_csr} names its states. *)
type names =
  | Names of string array  (** The names outright, one per state. *)
  | Product of t array * int array
      (** [Product (parts, keys)]: state [i] is the product state whose
          part indices are the mixed-radix digits of [keys.(i)] — the
          radix of part [c] is its state count, part 0 is the most
          significant digit.  Its name joins the parts' state names with
          ['.'], escaping every ['.'] and ['\'] inside a part's name
          with a backslash, so distinct tuples never collide (["a.b"]
          and ["c"] give ["a\.b.c"], ["a"] and ["b.c"] give
          ["a.b\.c"]) and dot-free names appear verbatim, matching the
          paper's ["qa.qb"] (Figure 12b).  A part may itself be a
          product: its names are escaped once more.  The product keeps
          only the parts' naming, not their transitions. *)

(** {1 Construction} *)

val create :
  ?marked:string list ->
  ?forbidden:string list ->
  ?alphabet:Event.t list ->
  name:string ->
  initial:string ->
  transitions:(string * Event.t * string) list ->
  unit ->
  t
(** [create ~name ~initial ~transitions ()] builds an automaton.  States
    are collected from [initial], the transition endpoints, [marked] and
    [forbidden]; the alphabet is the union of [alphabet] (optional extra
    events, e.g. events the component never participates in but should
    synchronize on — rarely needed) and the transition events.

    Raises [Invalid_argument] when:
    - two transitions from the same state on the same event disagree
      (nondeterminism);
    - the same event name is used both controllably and uncontrollably
      (in the transitions or the extra [alphabet]);
    - [marked]/[forbidden] mention unknown states — they must appear in a
      transition or be the initial state.

    If [marked] is omitted, every state is marked (the common convention
    for plants whose marking is irrelevant); an explicit [~marked:[]]
    marks no state. *)

val of_csr :
  name:string ->
  names:names ->
  alphabet:Event.Set.t ->
  initial:int ->
  flags:string ->
  row:int array ->
  tr:Bytes.t ->
  t
(** {b Trusted constructor} for algorithm outputs ({!Synthesis}'
    extraction, which {!Compose.pair} runs too):
    [of_csr ~name ~names ~alphabet ~initial ~flags ~row ~tr]
    builds an automaton over states [0 .. String.length flags - 1] from
    rows already in CSR order.  Word [k] is the unsigned native-endian
    32-bit integer at bytes [4k .. 4k + 3] of [tr] (what
    [Bytes.set_int32_ne] writes); state [i]'s transitions are words
    [row.(i) .. row.(i + 1) - 1], each [(target lsl b) lor rank] with
    [b] the {!rank_bits} of [alphabet] and [rank] the event's position
    in its {!events}, strictly increasing by rank within the row; and
    [flags.[i]] is its flag byte (see {!flags}).  Nothing is scattered
    or sorted, and the automaton takes ownership of [row] and [tr]: the
    caller must not mutate them afterwards, nor the arrays in [names].
    A {!Product}'s name table is built — once, memoized — when a
    name-based accessor is first used; {!structural_digest} writes the
    names without building it.  Name accessors are safe to call from
    several domains at once.

    Unlike {!create} it performs no string interning and no state
    collection, only linear scans that reject ([Invalid_argument]) more
    than [2^(32 - b)] states, a malformed row table (a byte length not
    a multiple of 4 among them), an unsorted row, a repeated rank in a
    row (nondeterminism), a rank at or past the alphabet's size, a
    target that is not a state index, and a flag byte with a bit other
    than the two {!flags} names.  The caller contract — outputs that
    are deterministic and consistently indexed {e by construction}:
    - [initial] is a state index;
    - [names] has one name or key per state ([Invalid_argument]
      otherwise), every key's digits are within the parts' state counts,
      and the names are {e distinct} (the escaping join guarantees it
      for distinct keys).  Duplicate names are reported —
      [Invalid_argument] — when the name→index table is first built,
      not at construction. *)

(** {1 Inspection} *)

val name : t -> string
val alphabet : t -> Event.Set.t

val states : t -> string list
(** All state names, in index order.  Forces the name table. *)

val num_states : t -> int
val num_transitions : t -> int
val initial : t -> string
val marked : t -> string list
val forbidden : t -> string list
val is_marked : t -> string -> bool
val is_forbidden : t -> string -> bool
val mem_state : t -> string -> bool

val step : t -> string -> Event.t -> string option
(** [step a q e] is δ(q,e), or [None] when undefined.  Raises
    [Invalid_argument] on an unknown state name. *)

val enabled : t -> string -> Event.t list
(** Events with a transition defined from the given state, sorted. *)

val transitions : t -> transition list
(** All transitions, row-major (by source index, then event id).  Forces
    the name table. *)

val accepts : t -> Event.t list -> bool
(** [accepts a w] — does the word [w] lead from the initial state to a
    marked state (never visiting an undefined transition)? *)

val trace : t -> Event.t list -> string option
(** The state reached by a word from the initial state, or [None] when
    the word leaves the defined transition structure. *)

(** {1 Index-based traversal}

    The algorithm-facing API: no strings, no hashing.  State indices are
    stable for a given value of [t] and range over [0 .. num_states-1];
    events travel as {!Event.id} ints. *)

val index_of_state : t -> string -> int
val state_of_index : t -> int -> string
val initial_index : t -> int

val step_index : t -> int -> int -> int option
(** [step_index a i eid] is δ at state index [i] on the event with intern
    id [eid] — a binary search of the state's sorted CSR row; zero
    hashing, zero allocation beyond the option. *)

val step_index_raw : t -> int -> int -> int
(** {!step_index} without the option: the destination index, or [-1]
    when δ is undefined.  The tick-path variant — state indices are
    non-negative, so the sentinel is unambiguous and nothing is
    allocated. *)

val iter_row : t -> int -> (int -> int -> unit) -> unit
(** [iter_row a i f] calls [f eid dst] for each outgoing transition of
    state [i], in increasing event-id order.  The preferred traversal for
    algorithms — no [Event.t] decode, no closure over sets. *)

val out_degree : t -> int -> int
(** Number of outgoing transitions of a state. *)

val csr : t -> int array * Bytes.t
(** [(row, tr)]: the transition structure itself, shared rather than
    copied — what {!of_csr} takes.  Row [i] is words
    [row.(i) .. row.(i + 1) - 1] of [tr], 4 bytes each, sorted by rank.
    For index-native walks that cannot afford a closure per row
    ({!Verify}, {!Synthesis}); neither must be mutated. *)

val events : t -> Event.t array
(** The alphabet by ascending {!Event.id}, shared rather than copied: a
    word's rank indexes it.  It must not be mutated. *)

val rank_bits : t -> int
(** The width of a word's rank field: the least [b] with
    [2^b >= Array.length (events a)].  A word's target is
    [w lsr rank_bits a] and its rank [w land (1 lsl rank_bits a - 1)]. *)

val flags : t -> string
(** One flag byte per state, shared rather than copied like {!csr}:
    bit 0 (value 1) is set when the state is marked, bit 1 (value 2)
    when it is forbidden, and no other bit is.  These are the bits of
    the synthesis engine's own flags word, so the engine reads a
    component's flags in place. *)

val event_of_id : t -> int -> Event.t
(** Decode an event id through this automaton's alphabet table ([O(1)],
    no global lock).  Raises [Invalid_argument] for ids outside the
    alphabet. *)

(** {1 Renaming} *)

val rename : t -> string -> t
(** Same automaton under a new name. *)

(** {1 Names} *)

val unescape_state_name : string -> string
(** Strip the {!Product} escaping for human-readable display
    (["Eval\.Safe.Uncapped"] becomes ["Eval.Safe.Uncapped"]).  Lossy —
    distinct escaped names may collapse — so it is for labels only, never
    for identity; {!Dot} uses it for node labels. *)

val structural_digest : t -> string
(** Hex digest of the automaton's full structure (name, state names in
    index order, alphabet with controllability, initial state,
    transitions, marked and forbidden sets).  Two automata with equal
    digests are structurally identical; the synthesis cache uses this as
    its key.  The names and the alphabet are hashed as length-prefixed
    text; the counts, the [n + 1] row offsets and, per transition, the
    event's rank in the alphabet and the target as fixed-width binary
    ints, all in one exactly sized buffer.  Transitions are digested in
    CSR order (by source index, then event {e id}), so the digest is
    deterministic within a process — which is what the in-process cache
    needs — but not across processes, where intern order may differ.
    Cached after the first call.  A product's names are written from
    its components straight into the hashed buffer, without building
    the name table. *)

(** {1 Comparison} *)

val isomorphic : t -> t -> bool
(** True when the two automata are identical up to state renaming
    (checked by parallel traversal from the initial states — sound and
    complete for deterministic automata with all states reachable;
    unreachable states are ignored). *)

val pp : Format.formatter -> t -> unit
(** Short human-readable summary (name, counts, initial state). *)
