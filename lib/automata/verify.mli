(** Property checks of §4.3.4: non-blocking and controllability.

    These are the two checks the Supremica tool runs on a synthesized
    supervisor before it is allowed onto the platform.
    {!Synthesis.supcon} produces supervisors for which both hold by
    construction, and [Spectr_exec.Synth_cache] runs both on every
    cache miss before it stores the supervisor, so [Supervisor.synthesize]
    and every manager get verified supervisors.  Both walk the automaton
    on state indices, apart from the synthesis engine: they share no
    code with what they check. *)

type blocking_witness = {
  state : string;  (** An accessible state that cannot reach a marked state. *)
}

val nonblocking : Automaton.t -> (unit, blocking_witness) result
(** Non-blocking: every accessible state is coaccessible, i.e. some
    accepted ("ideal") state remains reachable whatever happened so far. *)

val is_nonblocking : Automaton.t -> bool

type controllability_witness = {
  supervisor_state : string;
  plant_state : string;
  event : Event.t;  (** Uncontrollable event the supervisor tries to disable. *)
}

val controllable :
  plant:Automaton.t ->
  supervisor:Automaton.t ->
  (unit, controllability_witness) result
(** Controllability of [supervisor] (as a language over the plant's
    alphabet) w.r.t. [plant]: at every jointly-reachable state pair, every
    uncontrollable event the plant enables must also be enabled by the
    supervisor.  Uncontrollable events outside the supervisor's alphabet
    are implicitly always enabled (standard lifting). *)

val is_controllable : plant:Automaton.t -> supervisor:Automaton.t -> bool

val closed_loop : plant:Automaton.t -> supervisor:Automaton.t -> Automaton.t
(** The controlled system S ‖ G — what actually executes at runtime. *)
