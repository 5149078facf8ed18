(** A bank of persistence counters: the one evidence-accumulation
    primitive behind {!Guarded}'s watchdog and {!Fdir}'s detector.

    Each counter holds a streak of consecutive hits ({!note}: a hit adds
    one, a miss resets to zero) and a stage — quiet, flagged or latched
    — advanced by {!transition} against an onset and a latch threshold.
    A latched counter never un-latches; its streak keeps counting.  The
    whole bank lives in one [int array], so noting, classifying, copying
    and restoring never allocate (beyond {!copy}'s one array). *)

type t

val create : int -> t
(** [create n]: [n] counters, all quiet with a zero streak.  Raises
    [Invalid_argument] when [n < 0]. *)

val note : t -> int -> bool -> unit
(** [note b i hit]: a hit extends counter [i]'s streak by one, a miss
    resets it to zero.  The stage is untouched. *)

val streak : t -> int -> int
val reset : t -> int -> unit
(** Zero the streak (the stage is untouched). *)

(** What one {!transition} did to a counter's stage. *)
type change =
  | Unchanged
  | Raised  (** quiet → flagged: the streak reached [onset]. *)
  | Cleared  (** flagged → quiet: the streak fell back to zero. *)
  | Latched  (** → latched, for good: the streak reached [latch]. *)

val transition : t -> int -> onset:int -> latch:int -> change
(** Advance counter [i]'s stage on its current streak.  A latched
    counter is [Unchanged] forever; otherwise a streak [>= latch]
    latches (from quiet or flagged), a streak [>= onset] raises a quiet
    counter, and a zero streak clears a flagged one.  Expects
    [onset < latch]. *)

val flagged : t -> int -> bool
(** Raised or latched (not quiet)? *)

val copy : t -> t

val blit : src:t -> t -> unit
(** Overwrite every counter with [src]'s.  Raises [Invalid_argument]
    when the lengths differ. *)
