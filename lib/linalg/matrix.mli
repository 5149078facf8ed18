(** Dense matrices of floats.

    This is the numerical workhorse underneath the state-space controllers
    ({!Spectr_control.Statespace}, {!Spectr_control.Lqr}) and the system
    identification routines ({!Spectr_sysid.Arx}).  Matrices are immutable
    from the caller's point of view: every operation returns a fresh matrix.

    Dimensions are checked and mismatches raise [Invalid_argument] with a
    message naming the offending operation. *)

type t
(** A dense row-major matrix. *)

(** {1 Construction} *)

val create : rows:int -> cols:int -> float -> t
(** [create ~rows ~cols x] is the [rows]×[cols] matrix filled with [x].
    Raises [Invalid_argument] if a dimension is not positive. *)

val zeros : rows:int -> cols:int -> t
(** All-zero matrix. *)

val identity : int -> t
(** [identity n] is the n×n identity. *)

val init : rows:int -> cols:int -> (int -> int -> float) -> t
(** [init ~rows ~cols f] has entry [f i j] at row [i], column [j]
    (0-indexed). *)

val of_arrays : float array array -> t
(** [of_arrays a] copies [a] (an array of rows).  Raises [Invalid_argument]
    on an empty or ragged array. *)

val of_list : float list list -> t
(** List-of-rows variant of {!of_arrays}. *)

val row_vector : float array -> t
(** 1×n matrix. *)

val col_vector : float array -> t
(** n×1 matrix. *)

val diagonal : float array -> t
(** Square matrix with the given diagonal and zeros elsewhere. *)

(** {1 Access} *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
(** [get m i j] is entry (i,j); raises [Invalid_argument] out of range. *)

val to_arrays : t -> float array array
(** Fresh array-of-rows copy. *)

val to_scalar : t -> float
(** The single entry of a 1×1 matrix; raises [Invalid_argument] otherwise. *)

(** {1 Algebra} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
(** Matrix product; raises [Invalid_argument] on inner-dimension
    mismatch. *)

val scale : float -> t -> t
val neg : t -> t
val transpose : t -> t

(** {2 In-place variants}

    Preallocated-destination versions of the core algebra for
    allocation-free hot loops.  [dst] must already have the result's
    shape; dimension mismatches raise [Invalid_argument] exactly as in
    the allocating versions.  Results are bit-identical to their
    allocating counterparts (same accumulation order). *)

val add_into : dst:t -> t -> t -> unit
val sub_into : dst:t -> t -> t -> unit
val scale_into : dst:t -> float -> t -> unit
val neg_into : dst:t -> t -> unit

val copy_into : dst:t -> t -> unit
(** Overwrite [dst] with a copy of the argument. *)

val data : t -> float array
(** The backing store, row-major ([a_ij] at index [i*cols + j]; a column
    vector is just indices [0..rows-1]).  The escape hatch for
    zero-allocation kernels that read or write elements in a loop —
    [get]/[init] are cross-module calls whose boxed float returns the
    tick path cannot afford.  Writes alias the matrix; mutate with
    care. *)

val mul_into : dst:t -> t -> t -> unit
(** Matrix product into [dst].  Raises [Invalid_argument] if [dst]
    aliases either operand (the accumulation would read
    partially-written entries); the element-wise [_into] ops above
    tolerate aliasing.  {!mul} is this kernel on a fresh destination. *)

val transpose_into : dst:t -> t -> unit
(** Transpose into [dst] (which must be [cols]×[rows] of the argument
    and must not alias it).  {!transpose} is this kernel on a fresh
    destination. *)

val hcat : t -> t -> t
(** Horizontal concatenation [\[a b\]]. *)

val vcat : t -> t -> t
(** Vertical concatenation. *)

val block : t array array -> t
(** Assemble a block matrix from a rectangular grid of compatible blocks. *)

val submatrix : t -> row:int -> col:int -> rows:int -> cols:int -> t
(** Extract a [rows]×[cols] block whose top-left corner is ([row],[col]). *)

(** {1 Solving} *)

val solve : t -> t -> t
(** [solve a b] solves [a x = b] by Gaussian elimination with partial
    pivoting; [b] may have several columns.
    Raises [Failure "Matrix.solve: singular"] if [a] is (numerically)
    singular, and [Invalid_argument] if [a] is not square or dimensions
    mismatch. *)

val solve_into : lu:t -> dst:t -> t -> t -> unit
(** [solve_into ~lu ~dst a b] is {!solve} without allocation: [a] is
    copied into [lu] (n×n scratch, left holding the eliminated factors)
    and [b] into [dst] (the shape of [b]), which receives the solution.
    Pivoting swaps rows of the two flat stores in place.  [lu] may be
    [a] itself and [dst] may be [b] itself (a destructive in-place
    solve), but [lu] must not share storage with [b] or [dst].  Results,
    including which systems fail as singular, are bit-identical to
    {!solve}, which is this kernel on fresh buffers.  Same exceptions as
    {!solve}; on [Failure] the contents of [lu] and [dst] are
    unspecified. *)

(** {1 Norms and predicates} *)

val frobenius_norm : t -> float
val max_abs : t -> float
(** Largest absolute entry. *)

val equal : ?tol:float -> t -> t -> bool
(** Entry-wise comparison within [tol] (default [1e-9]); [false] when
    shapes differ. *)

val is_symmetric : ?tol:float -> t -> bool

val trace : t -> float
(** Sum of diagonal entries of a square matrix. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Multi-line fixed-point rendering, for debugging and test output. *)
