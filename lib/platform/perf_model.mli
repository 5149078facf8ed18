(** Analytic performance model for the heterogeneous clusters.

    Per-core throughput follows a CPI law linear in frequency,

    {v CPI(f) = a + b·f      (f in GHz) v}

    where [a] is the compute CPI and [b·f] the memory-stall CPI (stall
    cycles scale with the clock because DRAM latency is constant in
    seconds).  The coefficients are derived per workload so that the
    speedup over the host cluster's full DVFS range equals the workload's
    [freq_scaling]; every other cluster's law follows its
    [Platform_desc.cpi_law].  Multi-threaded scaling follows Amdahl's
    law with the phase-dependent parallel fraction.

    Frequencies in MHz throughout, matching {!Opp}. *)

val coefficients_for : Workload.t -> Platform_desc.t -> int -> float * float
(** CPI law of cluster [i] of a platform description: the host cluster
    anchored on the workload's [base_ipc_big] at 1 GHz with its
    [freq_scaling] spanning its own table, other clusters per their
    [Platform_desc.cpi_law].  Raises [Invalid_argument] when the host
    table's frequency range is too narrow for the workload's
    [freq_scaling]. *)

val contention : float
(** Shared-DRAM bandwidth contention: fractional inflation of the
    memory-stall CPI per additional busy core.  The source of the
    per-core cross-coupling that degrades large (10×10) model
    identification (§2.2, Figures 5/15). *)

val contention_factor : busy_cores:float -> float
(** 1 + contention·(busy − 1), clamped at busy ≥ 1. *)

val max_qos_rate_for : Platform_desc.t -> Workload.t -> float
(** Rate at the maximum allocation: every host core at the host
    cluster's top OPP, nominal parallel fraction, no disturbance. *)

val min_qos_rate_for : Platform_desc.t -> Workload.t -> float
(** Rate at the minimum allocation: one host core at the bottom OPP. *)
