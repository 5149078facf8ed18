(** Deterministic splittable pseudo-random generator (SplitMix64).

    The simulator, sensor-noise models and identification excitations all
    draw from explicit generator values so that every experiment and test
    is reproducible bit-for-bit without global state (see DESIGN.md §6). *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** Generator seeded with the given value; equal seeds give equal
    streams. *)

val mix_seed : int -> int -> int64
(** [mix_seed seed index] is the seed of the [index]-th independent
    stream of a run seeded [seed]: (index+1)·0x9E3779B97F4A7C15 +
    seed·0xBF58476D1CE4E5B9, wrapping (SplitMix-style).  Chaos cells,
    node-kill drills, fleet nodes and arrival epochs derive their seeds
    this way, so any one of them can be regenerated without the rest. *)

val blit : src:t -> dst:t -> unit
(** Overwrite [dst]'s state with [src]'s without allocating.  Afterwards
    both generators produce the same stream (and then diverge as they
    are advanced independently). *)

val split : t -> t
(** A new generator statistically independent from the parent (the parent
    advances). *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform in [0, 1). *)

val chance : t -> float -> bool
(** [chance g p] is [float g < p]: one uniform draw, returned as the
    event's outcome so that the caller pays no float-return box. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [lo, hi).  Raises [Invalid_argument] when [hi < lo]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** Normal sample via Box–Muller. *)

val skip_gaussian : t -> unit
(** Advance the state exactly as one [gaussian] call would — same number
    of underlying draws, bit-identical subsequent stream — without
    computing the transcendental-heavy sample itself.  Used by hot paths
    to defer draws whose values may never be consumed: save the state
    with [copy]/[blit] first, skip, and replay with [gaussian] on the
    saved state only if the value is actually needed. *)

val noisy_into : t -> sigma:float -> dst:float array -> pos:int -> len:int -> unit
(** Multiply each of [dst.(pos)..dst.(pos+len-1)] in place by
    [1. +. gaussian ~mu:0. ~sigma], drawing in ascending index order;
    when [sigma <= 0.] the state does not advance and [dst] is left
    untouched.  Bit-identical to the equivalent per-element [gaussian]
    calls, but returns [unit] so hot paths pay no float-return boxing. *)

val bool : t -> bool

val int : t -> int -> int
(** [int g n] is uniform in [0, n).  Raises when [n <= 0]. *)
