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

(* The operands of one DARE and a buffer for every intermediate of a
   Riccati step: A' and B' are transposed once, and a step then runs
   entirely in these buffers, allocating nothing. *)
type work = {
  a : Matrix.t;
  b : Matrix.t;
  q : Matrix.t;
  r : Matrix.t;
  at : Matrix.t;
  bt : Matrix.t;
  atp : Matrix.t; (* n x n  A'P *)
  atpa : Matrix.t; (* n x n  A'PA *)
  atpb : Matrix.t; (* n x m  A'PB *)
  btp : Matrix.t; (* m x n  B'P *)
  inner : Matrix.t; (* m x m  R + B'PB, then its elimination *)
  x : Matrix.t; (* m x n  (A'PB)', then (R + B'PB)^-1 B'PA *)
  corr : Matrix.t; (* n x n  A'PB x *)
}

let work ~a ~b ~q ~r =
  let n = Matrix.rows a and m = Matrix.cols b in
  let z rows cols = Matrix.zeros ~rows ~cols in
  {
    a;
    b;
    q;
    r;
    at = Matrix.transpose a;
    bt = Matrix.transpose b;
    atp = z n n;
    atpa = z n n;
    atpb = z n m;
    btp = z m n;
    inner = z m m;
    x = z m n;
    corr = z n n;
  }

(* One step of the Riccati difference equation into [dst]:
   P' = A'PA - A'PB (R + B'PB)^-1 B'PA + Q.
   [false] when R + B'PB is singular. *)
let step_into w p ~dst =
  Matrix.mul_into ~dst:w.atp w.at p;
  Matrix.mul_into ~dst:w.atpa w.atp w.a;
  Matrix.mul_into ~dst:w.atpb w.atp w.b;
  Matrix.mul_into ~dst:w.btp w.bt p;
  Matrix.mul_into ~dst:w.inner w.btp w.b;
  Matrix.add_into ~dst:w.inner w.r w.inner;
  Matrix.transpose_into ~dst:w.x w.atpb;
  match Matrix.solve_into ~lu:w.inner ~dst:w.x w.inner w.x with
  | exception Failure _ -> false
  | () ->
      (* x = (R + B'PB)^-1 B'PA,  so the correction term is  A'PB * x *)
      Matrix.mul_into ~dst:w.corr w.atpb w.x;
      let qd = Matrix.data w.q
      and ad = Matrix.data w.atpa
      and cd = Matrix.data w.corr
      and dd = Matrix.data dst in
      for k = 0 to Array.length dd - 1 do
        dd.(k) <- qd.(k) +. (ad.(k) -. cd.(k))
      done;
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
