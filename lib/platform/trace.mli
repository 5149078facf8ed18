(** Column-named time-series recorder for experiments.

    Every evaluation run records one row per controller period; the bench
    harness then pulls columns out to compute steady-state errors,
    settling times and to print figure series. *)

type t

val create : ?cap:int -> columns:string list -> unit -> t
(** Raises [Invalid_argument] on an empty or duplicated column list.
    [cap] preallocates row capacity (default 256) — a caller that knows
    the run length up front (e.g. the scenario runner) avoids all
    doubling reallocations during recording. *)

val add : t -> float array -> unit
(** Append a row; its length must match the column count. *)

val length : t -> int
val columns : t -> string list

val width : t -> int
(** Number of columns. *)

val column : t -> string -> float array
(** Raises [Invalid_argument] on an unknown column name.  O(n) copy of
    contiguous storage (rows are stored column-major). *)

val column_slice : t -> string -> from:int -> upto:int -> float array
(** Samples with index in [from, upto) — e.g. one scenario phase.
    Raises on an invalid range.  O(upto - from). *)

val last : t -> string -> float
(** Latest value of a column, O(1).  Raises on an empty trace. *)

(** {1 Index-based access}

    Name lookup is a hash-table probe; hot loops that read the same
    column every tick should resolve the index once with
    {!column_index} and then use these accessors, which do no string
    work at all. *)

val column_index : t -> string -> int
(** Stable 0-based index of a column.  Raises [Invalid_argument] on an
    unknown name. *)

val column_ix : t -> int -> float array
(** By-index {!column}.  Raises [Invalid_argument] on an out-of-range
    index. *)

val last_ix : t -> int -> float
(** By-index {!last}: latest value, O(1), no hashing. *)

val to_csv : t -> string
(** Header line (the column names) plus one comma-separated line per
    row, each line ending in ['\n'].  Every value is written as
    [Printf.sprintf "%.6g"] writes it, byte for byte, without calling
    [Printf]: six significant digits, trailing zeros dropped, exponent
    form below 1e-4 and from 1e6 up, and the C library's spelling of
    nan, the infinities and -0.  The chaos cell digests, the
    [spectr_cli chaos] reproducers and their replays, the pinned
    scenario digests and the [make platform-smoke] CSVs all hash this
    text; [test_platform] checks it against [Printf] over eight
    million seeded values. *)

val csv_digest : t -> string
(** [Digest.to_hex (Digest.string (to_csv t))], without the text: each
    row is rendered by [to_csv]'s own renderer into a fixed buffer that
    is fed through the runtime's MD5 context ({!Spectr_linalg.Md5}) as
    it fills.  The digest of a chaos cell's trace. *)
