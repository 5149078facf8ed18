(** Analytic performance model for the heterogeneous clusters.

    Per-core throughput follows a CPI law linear in frequency,

    {v CPI(f) = a + b·f      (f in GHz) v}

    where [a] is the compute CPI and [b·f] the memory-stall CPI (stall
    cycles scale with the clock because DRAM latency is constant in
    seconds).  The coefficients are derived per workload so that the
    speedup over the Big cluster's full DVFS range equals the workload's
    [freq_scaling].  Multi-threaded scaling follows Amdahl's law with the
    phase-dependent parallel fraction.

    Frequencies in MHz throughout, matching {!Opp}. *)

type cluster = Big | Little
(** The Exynos 5422 calibration reference.  Description-driven code
    uses {!coefficients_for} with a cluster index instead. *)

val coefficients_for : Workload.t -> Platform_desc.t -> int -> float * float
(** CPI law of cluster [i] of a platform description: the host cluster
    anchored on the workload's [base_ipc_big] at 1 GHz with its
    [freq_scaling] spanning its own table, other clusters per their
    [Platform_desc.cpi_law].  On [Platform_desc.exynos5422] it is
    bit-identical to the {!Big}/{!Little} calibration reference. *)

val contention : float
(** Shared-DRAM bandwidth contention: fractional inflation of the
    memory-stall CPI per additional busy core.  The source of the
    per-core cross-coupling that degrades large (10×10) model
    identification (§2.2, Figures 5/15). *)

val contention_factor : busy_cores:float -> float
(** 1 + contention·(busy − 1), clamped at busy ≥ 1. *)

val core_ips : ?busy_cores:float -> Workload.t -> cluster -> freq_mhz:int -> float
(** Instructions per second of one fully-busy core when [busy_cores]
    (default 4) cores compete for memory bandwidth. *)

val max_qos_rate : Workload.t -> float
(** Rate at the maximum allocation the experiments use: 4 Big cores at
    the top OPP, nominal parallel fraction, no disturbance. *)

val min_qos_rate : Workload.t -> float
(** Rate at the minimum allocation: 1 Big core at the bottom OPP. *)

val max_qos_rate_for : Platform_desc.t -> Workload.t -> float
(** {!max_qos_rate} on the description's host cluster (all host cores at
    its top OPP); equals {!max_qos_rate} on [exynos5422]. *)
