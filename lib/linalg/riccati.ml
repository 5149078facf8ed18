type error =
  | Dimension_mismatch of string
  | Not_converged of { doublings : int; residual : float }
  | Singular

let pp_error ppf = function
  | Dimension_mismatch s -> Format.fprintf ppf "dimension mismatch: %s" s
  | Not_converged { doublings; residual } ->
      Format.fprintf ppf "no solution after %d doublings (relative residual %g)"
        doublings residual
  | Singular -> Format.fprintf ppf "I + GH singular"

let check_dims ~a ~b ~q ~r =
  let n = Matrix.rows a in
  let m = Matrix.cols b in
  if Matrix.cols a <> n then Error (Dimension_mismatch "A not square")
  else if Matrix.rows b <> n then Error (Dimension_mismatch "B rows <> n")
  else if Matrix.rows q <> n || Matrix.cols q <> n then
    Error (Dimension_mismatch "Q not n x n")
  else if Matrix.rows r <> m || Matrix.cols r <> m then
    Error (Dimension_mismatch "R not m x m")
  else Ok n

let max_doublings = 64
let tol = 1e-12
let residual_bound = 1e-9

(* (X + X') / 2: G and H are symmetric in exact arithmetic, and keeping
   them so stops rounding from accumulating in their skew part. *)
let symmetrize x = Matrix.scale 0.5 (Matrix.add x (Matrix.transpose x))

(* Max-abs entry of F(P) - P, F the Riccati map
   F(P) = A'PA - A'PB (R + B'PB)^-1 B'PA + Q, relative to max(1, |P|);
   NaN when R + B'PB is singular. *)
let relative_residual ~a ~b ~q ~r p =
  let atp = Matrix.mul (Matrix.transpose a) p in
  let atpb = Matrix.mul atp b in
  let inner = Matrix.add r (Matrix.mul (Matrix.transpose b) (Matrix.mul p b)) in
  match Matrix.solve inner (Matrix.transpose atpb) with
  | exception Failure _ -> nan
  | x ->
      let f = Matrix.add q (Matrix.sub (Matrix.mul atp a) (Matrix.mul atpb x)) in
      Matrix.max_abs (Matrix.sub f p) /. Float.max 1. (Matrix.max_abs p)

let finite m = Array.for_all Float.is_finite (Matrix.data m)

(* Structure-preserving doubling (Chu, Fan & Lin 2005):

     W = I + G H,  A' = A W^-1 A,  G' = G + A W^-1 G A',
     H' = H + A' H W^-1 A.

   After k doublings H is the 2^k-th iterate of the Riccati difference
   equation from P = Q, so it converges quadratically to the stabilizing
   P when one exists; an unstabilizable mode on the unit circle makes H
   grow without bound instead. *)
let solve ~a ~b ~q ~r =
  match check_dims ~a ~b ~q ~r with
  | Error _ as e -> e
  | Ok n -> (
      match Matrix.solve r (Matrix.transpose b) with
      | exception Failure _ -> Error Singular
      | r_inv_bt ->
          let id = Matrix.identity n in
          let rec double k ak gk hk =
            match
              Matrix.solve (Matrix.add id (Matrix.mul gk hk)) (Matrix.hcat ak gk)
            with
            | exception Failure _ -> Error Singular
            | x ->
                let w_a = Matrix.submatrix x ~row:0 ~col:0 ~rows:n ~cols:n in
                let w_g = Matrix.submatrix x ~row:0 ~col:n ~rows:n ~cols:n in
                let a' = Matrix.mul ak w_a in
                let g' =
                  symmetrize
                    (Matrix.add gk (Matrix.mul (Matrix.mul ak w_g) (Matrix.transpose ak)))
                in
                let h' =
                  symmetrize
                    (Matrix.add hk (Matrix.mul (Matrix.mul (Matrix.transpose ak) hk) w_a))
                in
                let k = k + 1 in
                let finite_h = finite h' in
                let settled =
                  finite_h
                  && Matrix.max_abs (Matrix.sub h' hk)
                     <= tol *. Float.max 1. (Matrix.max_abs h')
                in
                if settled || k >= max_doublings || not finite_h then
                  let residual =
                    if finite_h then relative_residual ~a ~b ~q ~r h' else nan
                  in
                  if settled && residual <= residual_bound then Ok h'
                  else Error (Not_converged { doublings = k; residual })
                else double k a' g' h'
          in
          double 0 a (symmetrize (Matrix.mul b r_inv_bt)) q)
