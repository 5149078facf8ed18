(** The evaluation workloads of §5: four PARSEC benchmarks (x264,
    bodytrack, canneal, streamcluster — "the most CPU-bound along with the
    most cache-bound"), four machine-learning kernels (k-means, KNN, least
    squares, linear regression), and the system-identification
    microbenchmark.

    Parameters are calibrated so that maximum-vs-minimum resource
    allocation speedups land in the paper's reported 3.2×–4.5× range and
    x264 reaches ≈80 FPS at full Big-cluster allocation (the ceiling
    visible in Figure 13).  canneal carries an initial serialized
    input-processing phase — the behaviour §5.1.2 calls out to explain
    its Phase-1 QoS misses. *)

val x264 : Workload.t
(** Video encoding; QoS in frames/s.  Highly parallel, moderately
    memory-bound. *)

val bodytrack : Workload.t
val canneal : Workload.t
(** Cache-bound; starts with a serialized input-processing phase. *)

val streamcluster : Workload.t
(** The most memory-bound of the set (3.2× max speedup). *)

val kmeans : Workload.t

val microbench : Workload.t
(** The in-house identification microbenchmark: multiply–accumulate over
    sequential and random memory, high ILP/MLP coverage. *)

val all_qos : Workload.t list
(** The eight QoS applications, in the paper's Figure-14 order:
    bodytrack, canneal, k-means, KNN, least squares, linear regression,
    streamcluster, x264. *)

val by_name : string -> Workload.t option
(** Look up any of the nine workloads by its [name]. *)
