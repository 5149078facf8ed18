(** Events of a discrete-event system.

    Following Ramadge–Wonham supervisory control theory, every event is
    either {e controllable} (the supervisor may disable it — e.g. a
    gain-switch command) or {e uncontrollable} (generated spontaneously by
    the plant — e.g. a power-budget violation).  Events are identified by
    name; two events with equal names are the same event and must agree on
    controllability {e within any one automaton or composition} — that
    consistency is checked with a clear error at {!Automaton.create} and
    at the composition/synthesis entry points (see {!merge_alphabets}),
    not from inside the comparator.

    Events are {e interned}: {!controllable}/{!uncontrollable} return the
    unique value for a given (name, controllability) pair, carrying a
    dense process-wide integer {!id}.  The automata algorithms (compose,
    synthesize, reach, verify) run entirely on these ids — no string
    hashing or comparison on any hot path.  Ids are assigned in intern
    order and are therefore stable within a process but {e not} across
    processes; an automaton decodes the ids of its own alphabet
    ({!Automaton.event_of_id}). *)

type t = private { id : int; name : string; controllable : bool }

val controllable : string -> t
(** The (interned) controllable event of that name. *)

val uncontrollable : string -> t
(** The (interned) uncontrollable event of that name. *)

val name : t -> string
val is_controllable : t -> bool

val id : t -> int
(** Dense intern id, unique per (name, controllability) pair.  [O(1)] —
    the id is stored in the value. *)

val compare : t -> t -> int
(** Total order by (name, controllability); uncontrollable sorts before
    controllable for equal names.  Never raises — conflicting
    controllability for one name is reported by the alphabet-consistency
    checks ({!Automaton.create}, {!merge_alphabets}), not mid-comparison
    where it used to detonate inside [Set.union] rebalancing. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints [name] followed by [!] for uncontrollable events, matching the
    convention of SCT textbooks. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

val set_of_list : t list -> Set.t

val sorted_ids : Set.t -> int array
(** The set's event ids, ascending.  An event's position here is its
    {e event index} in the product engine's 32-bit transition words
    ({!Synthesis}, which {!Compose.pair} runs): indices order as ids do,
    and they need only as many bits as the alphabet has events. *)

val merge_alphabets : context:string -> Set.t -> Set.t -> Set.t
(** Union of two alphabets, with the consistency check the comparator no
    longer performs: raises [Invalid_argument] — prefixed with [context]
    and naming the offending event — when the same event name appears
    controllable on one side and uncontrollable on the other.  Called at
    the {!Compose.pair}, {!Synthesis.supcon} and {!Verify.controllable}
    entry points so a modelling bug fails loudly with a readable message
    instead of an exception thrown from inside a [Set] rebalance. *)
