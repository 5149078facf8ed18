type error =
  | Dimension_mismatch of string
  | Not_converged of { iterations : int; residual : float }
  | Singular

let pp_error ppf = function
  | Dimension_mismatch s -> Format.fprintf ppf "dimension mismatch: %s" s
  | Not_converged { iterations; residual } ->
      Format.fprintf ppf "no convergence after %d iterations (residual %g)"
        iterations residual
  | Singular -> Format.fprintf ppf "R + B'PB singular"

let check_dims ~a ~b ~q ~r =
  let n = Matrix.rows a in
  let m = Matrix.cols b in
  if Matrix.cols a <> n then Error (Dimension_mismatch "A not square")
  else if Matrix.rows b <> n then Error (Dimension_mismatch "B rows <> n")
  else if Matrix.rows q <> n || Matrix.cols q <> n then
    Error (Dimension_mismatch "Q not n x n")
  else if Matrix.rows r <> m || Matrix.cols r <> m then
    Error (Dimension_mismatch "R not m x m")
  else Ok (n, m)

(* The nonzero entries of a matrix, column by column: column j's are
   [v.(t)] at row [row.(t)] for [t] in [ptr.(j) .. ptr.(j+1) - 1], rows
   ascending.  An entry is structural when [<> 0.], the test by which
   [Matrix.mul_into] skips a multiplier (a -0 is skipped, a NaN kept). *)
type columns = { ptr : int array; row : int array; v : float array }

let columns m =
  let rows = Matrix.rows m and cols = Matrix.cols m and d = Matrix.data m in
  let ptr = Array.make (cols + 1) 0 in
  for j = 0 to cols - 1 do
    let c = ref 0 in
    for i = 0 to rows - 1 do
      if d.((i * cols) + j) <> 0. then incr c
    done;
    ptr.(j + 1) <- ptr.(j) + !c
  done;
  let row = Array.make ptr.(cols) 0 and v = Array.make ptr.(cols) 0. in
  for j = 0 to cols - 1 do
    let t = ref ptr.(j) in
    for i = 0 to rows - 1 do
      let x = d.((i * cols) + j) in
      if x <> 0. then begin
        row.(!t) <- i;
        v.(!t) <- x;
        incr t
      end
    done
  done;
  { ptr; row; v }

(* The step kernels below are top-level functions over arrays annotated
   [float array]: under the Closure backend a helper closure local to
   the step is allocated on every step, and a read through an
   unannotated (polymorphic) array takes the generic, tag-testing path.

   Every entry they write starts at +0 and accumulates its terms over
   ascending k, as [Matrix.mul_into] does, but skips a term only where
   the structured factor (A or B) is 0; the correction skips where
   [mul_into] does.  While every factor is finite
   the terms it keeps beyond [mul_into]'s are exact ±0 and leave the sum
   unchanged (DESIGN §18).  Two independent entries share each inner
   trip, so their add chains overlap. *)

(* [dst] (rows x nc) := S'Y, for S given by its [columns] [s] and Y a
   dense store with [nc] columns: entry (i, j) sums s_ki * y_kj over
   column i of S.  Two columns of Y per trip. *)
let mul_t_into (s : columns) (y : float array) nc (dst : float array) rows =
  let ptr = s.ptr and row = s.row and sv = s.v in
  let even = nc land lnot 1 in
  for i = 0 to rows - 1 do
    let lo = Array.unsafe_get ptr i and hi = Array.unsafe_get ptr (i + 1) - 1 in
    let di = i * nc in
    let j = ref 0 in
    while !j < even do
      let s0 = ref 0. and s1 = ref 0. in
      for t = lo to hi do
        let f = Array.unsafe_get sv t and k = (Array.unsafe_get row t * nc) + !j in
        s0 := !s0 +. (f *. Array.unsafe_get y k);
        s1 := !s1 +. (f *. Array.unsafe_get y (k + 1))
      done;
      Array.unsafe_set dst (di + !j) !s0;
      Array.unsafe_set dst (di + !j + 1) !s1;
      j := !j + 2
    done;
    if even < nc then begin
      let s0 = ref 0. in
      for t = lo to hi do
        s0 :=
          !s0
          +. (Array.unsafe_get sv t
             *. Array.unsafe_get y ((Array.unsafe_get row t * nc) + even))
      done;
      Array.unsafe_set dst (di + even) !s0
    end
  done

(* [dst] (rows x nc) := XS, for X a dense store with [xc] columns and S
   given by its [columns] [s]: entry (i, j) sums x_ik * s_kj over column
   j of S.  Two rows of X per trip. *)
let mul_sparse_into (x : float array) xc rows (s : columns) nc (dst : float array) =
  let ptr = s.ptr and row = s.row and sv = s.v in
  let even = rows land lnot 1 in
  for j = 0 to nc - 1 do
    let lo = Array.unsafe_get ptr j and hi = Array.unsafe_get ptr (j + 1) - 1 in
    let i = ref 0 in
    while !i < even do
      let x0 = !i * xc in
      let s0 = ref 0. and s1 = ref 0. in
      for t = lo to hi do
        let f = Array.unsafe_get sv t and k = x0 + Array.unsafe_get row t in
        s0 := !s0 +. (Array.unsafe_get x k *. f);
        s1 := !s1 +. (Array.unsafe_get x (k + xc) *. f)
      done;
      Array.unsafe_set dst ((!i * nc) + j) !s0;
      Array.unsafe_set dst (((!i + 1) * nc) + j) !s1;
      i := !i + 2
    done;
    if even < rows then begin
      let x0 = even * xc in
      let s0 = ref 0. in
      for t = lo to hi do
        s0 :=
          !s0
          +. (Array.unsafe_get x (x0 + Array.unsafe_get row t) *. Array.unsafe_get sv t)
      done;
      Array.unsafe_set dst ((even * nc) + j) !s0
    end
  done

(* [dst] (n x n) := q + (A'P·A - A'PB·x), one entry at a time: the A'PA
   term sums over column j of A, and the correction skips a zero A'PB
   entry exactly as [Matrix.mul_into ~dst A'PB x] does, so an overflowed
   row of x that a zero A'PB column never reads stays unread.  Fusing
   both sums into the update saves the A'PA and correction buffers and
   a pass over them (EXPERIMENTS, "Structured Riccati step").  Two rows
   per trip. *)
let update_into (q : float array) (atp : float array) (a : columns)
    (atpb : float array) (x : float array) n m (dst : float array) =
  let ptr = a.ptr and row = a.row and av = a.v in
  let even = n land lnot 1 in
  for j = 0 to n - 1 do
    let lo = Array.unsafe_get ptr j and hi = Array.unsafe_get ptr (j + 1) - 1 in
    let i = ref 0 in
    while !i < even do
      let r0 = !i * n and b0 = !i * m in
      let s0 = ref 0. and s1 = ref 0. in
      for t = lo to hi do
        let f = Array.unsafe_get av t and k = r0 + Array.unsafe_get row t in
        s0 := !s0 +. (Array.unsafe_get atp k *. f);
        s1 := !s1 +. (Array.unsafe_get atp (k + n) *. f)
      done;
      let c0 = ref 0. and c1 = ref 0. in
      for k = 0 to m - 1 do
        let xk = Array.unsafe_get x ((k * n) + j)
        and f0 = Array.unsafe_get atpb (b0 + k)
        and f1 = Array.unsafe_get atpb (b0 + m + k) in
        if f0 <> 0. then c0 := !c0 +. (f0 *. xk);
        if f1 <> 0. then c1 := !c1 +. (f1 *. xk)
      done;
      Array.unsafe_set dst (r0 + j) (Array.unsafe_get q (r0 + j) +. (!s0 -. !c0));
      Array.unsafe_set dst (r0 + n + j)
        (Array.unsafe_get q (r0 + n + j) +. (!s1 -. !c1));
      i := !i + 2
    done;
    if even < n then begin
      let r0 = even * n and b0 = even * m in
      let s0 = ref 0. in
      for t = lo to hi do
        s0 :=
          !s0
          +. (Array.unsafe_get atp (r0 + Array.unsafe_get row t) *. Array.unsafe_get av t)
      done;
      let c0 = ref 0. in
      for k = 0 to m - 1 do
        let f0 = Array.unsafe_get atpb (b0 + k) in
        if f0 <> 0. then c0 := !c0 +. (f0 *. Array.unsafe_get x ((k * n) + j))
      done;
      Array.unsafe_set dst (r0 + j) (Array.unsafe_get q (r0 + j) +. (!s0 -. !c0))
    end
  done

(* The operands of one DARE, the column lists of A and B, and a buffer
   for every intermediate of a Riccati step, which then runs entirely
   in these buffers, allocating nothing. *)
type work = {
  n : int;
  m : int;
  q : Matrix.t;
  r : Matrix.t;
  ac : columns;
  bc : columns;
  atp : Matrix.t; (* n x n  A'P *)
  atpb : Matrix.t; (* n x m  A'PB *)
  btp : Matrix.t; (* m x n  B'P *)
  inner : Matrix.t; (* m x m  R + B'PB, then its elimination *)
  x : Matrix.t; (* m x n  (A'PB)', then (R + B'PB)^-1 B'PA *)
}

let work ~a ~b ~q ~r =
  let n = Matrix.rows a and m = Matrix.cols b in
  let z rows cols = Matrix.zeros ~rows ~cols in
  {
    n;
    m;
    q;
    r;
    ac = columns a;
    bc = columns b;
    atp = z n n;
    atpb = z n m;
    btp = z m n;
    inner = z m m;
    x = z m n;
  }

(* One step of the Riccati difference equation into [dst]:
   P' = A'PA - A'PB (R + B'PB)^-1 B'PA + Q.
   [false] when R + B'PB is singular. *)
let step_into w p ~dst =
  let n = w.n and m = w.m and pd = Matrix.data p in
  let atp = Matrix.data w.atp and btp = Matrix.data w.btp in
  mul_t_into w.ac pd n atp n;
  mul_t_into w.bc pd n btp m;
  mul_sparse_into atp n n w.bc m (Matrix.data w.atpb);
  mul_sparse_into btp n m w.bc m (Matrix.data w.inner);
  Matrix.add_into ~dst:w.inner w.r w.inner;
  Matrix.transpose_into ~dst:w.x w.atpb;
  match Matrix.solve_into ~lu:w.inner ~dst:w.x w.inner w.x with
  | exception Failure _ -> false
  | () ->
      (* x = (R + B'PB)^-1 B'PA,  so the correction term is  A'PB * x *)
      update_into (Matrix.data w.q) atp w.ac (Matrix.data w.atpb) (Matrix.data w.x)
        n m (Matrix.data dst);
      true

(* [Matrix.max_abs (Matrix.sub p' p)] without the difference matrix. *)
let[@inline] max_abs_diff p' p =
  let d' = Matrix.data p' and d = Matrix.data p in
  let acc = ref 0. in
  for k = 0 to Array.length d - 1 do
    let x = abs_float (d'.(k) -. d.(k)) in
    acc := if !acc >= x then !acc else x
  done;
  !acc

let solve ?(max_iter = 10_000) ?(tol = 1e-10) ~a ~b ~q ~r () =
  match check_dims ~a ~b ~q ~r with
  | Error _ as e -> e
  | Ok (n, _) ->
      let w = work ~a ~b ~q ~r in
      (* Double-buffered iterate, starting from P = Q. *)
      let p = ref (Matrix.zeros ~rows:n ~cols:n) in
      let p' = ref (Matrix.zeros ~rows:n ~cols:n) in
      Matrix.copy_into ~dst:!p q;
      let rec loop steps =
        if not (step_into w !p ~dst:!p') then Error Singular
        else
          let diff = max_abs_diff !p' !p in
          if diff <= tol then Ok !p'
          else if steps > max_iter then
            Error (Not_converged { iterations = steps; residual = diff })
          else begin
            let t = !p in
            p := !p';
            p' := t;
            loop (steps + 1)
          end
      in
      loop 1

let residual ~a ~b ~q ~r p =
  let p' = Matrix.zeros ~rows:(Matrix.rows p) ~cols:(Matrix.cols p) in
  if step_into (work ~a ~b ~q ~r) p ~dst:p' then max_abs_diff p' p
  else infinity
