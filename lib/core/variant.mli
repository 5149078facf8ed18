(** The manager catalogue: the one place that names the resource
    managers of the evaluation and builds one on a platform description.

    §5 of the paper compares SPECTR with the fixed MIMO managers MM-Pow
    and MM-Perf, the full-system MIMO (FS) and uncoordinated SISO PIDs;
    this reproduction adds the guarded SPECTR+G and the self-healing
    SPECTR+R ({!Spectr_manager.make_reconfigurable}). *)

type t = Spectr_r | Spectr_g | Spectr | Mm_pow | Mm_perf | Siso | Fs

val all : t list
(** Every variant, in declaration order. *)

val name : t -> string
(** The built manager's {!Manager.name}: ["SPECTR+R"], ["SPECTR+G"],
    ["SPECTR"], ["MM-Pow"], ["MM-Perf"], ["SISO"], ["FS"]. *)

val of_string : string -> t
(** Case-insensitive; accepts every {!name} and the CLI spellings
    (["spectr-r"], ["spectr_g"], ["mm_pow"], ["mmperf"], …).  Raises
    [Invalid_argument] otherwise. *)

val make :
  Spectr_platform.Platform_desc.t ->
  t ->
  Manager.t * Supervisor.t option * Guarded.t option
  * Spectr_manager.Reconfig.handle option
(** A fresh manager plus, for [Spectr] and [Spectr_g], its supervisor
    (the legality monitor inspects it), for the guarded variants the
    guard state, and for [Spectr_r] the reconfiguration handle.
    [Spectr_r]'s supervisor slot is [None]: its supervisor changes
    identity on every hot-swap, so monitors query
    {!Spectr_manager.Reconfig.supervisor} through the handle.

    [Siso] and [Fs] drive the exynos cluster indices 0 and 1 with
    hand-tuned gains: raises [Invalid_argument] for them on any
    description but exynos5422 ({!Design_flow.is_reference_platform}). *)
