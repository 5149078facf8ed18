(** DVFS operating performance points (OPPs).

    Voltage/frequency tables modelled after the Exynos 5422's cpufreq
    tables: the Little (Cortex-A7) cluster spans 200–1400 MHz, the Big
    (Cortex-A15) cluster 200–2000 MHz, both in 100 MHz steps, with supply
    voltage rising roughly linearly across the range.  DVFS is per
    cluster, as on the real part (§4.2, footnote 4). *)

type t = private {
  name : string;
  freqs_mhz : int array;  (** Ascending available frequencies. *)
  volts : float array;  (** Supply voltage at each OPP. *)
  uniform_step_mhz : int;
      (** Common gap in MHz when the table is evenly spaced (both
          built-in ramps are), 0 otherwise.  Evenly spaced tables get
          O(1) {!nearest}/{!voltage}. *)
}

val create : name:string -> points:(int * float) list -> t
(** Raises [Invalid_argument] on an empty table, non-ascending
    frequencies, or non-positive voltage. *)

val ramp :
  name:string -> lo_mhz:int -> hi_mhz:int -> lo_v:float -> hi_v:float -> t
(** Evenly spaced 100 MHz table from [lo_mhz] to [hi_mhz] with a linear
    voltage ramp — the shape of every cpufreq table we model.  Platform
    descriptions use this for built-in and synthetic clusters. *)

val big : t
(** Cortex-A15 cluster table (200–2000 MHz). *)

val little : t
(** Cortex-A7 cluster table (200–1400 MHz). *)

val min_freq : t -> int
val max_freq : t -> int
val num_points : t -> int

val nearest : t -> float -> int
(** [nearest table f_mhz] is the available frequency closest to [f_mhz]
    (ties resolve downward), clamped to the table range. *)

val request_at : t -> float array -> at:int -> int
(** [request_at table u ~at] is the OPP a frequency request of [u.(at)]
    GHz resolves to, read in place (no float crosses the call): the
    {!nearest} one, with NaN, negative and −∞ requests clamped to
    {!min_freq} and +∞ to {!max_freq}. *)

val voltage : t -> int -> float
(** Voltage at an exact table frequency.  Raises [Invalid_argument] when
    the frequency is not an OPP — call {!nearest} first. *)
