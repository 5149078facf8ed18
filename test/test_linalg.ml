(* Tests for the numerical substrate: Matrix, Riccati, Stats, Prng. *)

open Spectr_linalg

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let matrix_testable =
  Alcotest.testable Matrix.pp (fun a b -> Matrix.equal ~tol:1e-9 a b)

(* ------------------------------------------------------------------ *)
(* Matrix: construction                                                *)
(* ------------------------------------------------------------------ *)

let test_create_fill () =
  let m = Matrix.create ~rows:2 ~cols:3 1.5 in
  check_int "rows" 2 (Matrix.rows m);
  check_int "cols" 3 (Matrix.cols m);
  check_float "entry" 1.5 (Matrix.get m 1 2)

let test_create_invalid () =
  Alcotest.check_raises "zero rows" (Invalid_argument "Matrix.create: dimensions 0x3")
    (fun () -> ignore (Matrix.create ~rows:0 ~cols:3 0.))

let test_identity () =
  let i3 = Matrix.identity 3 in
  check_float "diag" 1. (Matrix.get i3 1 1);
  check_float "off" 0. (Matrix.get i3 0 2)

let test_of_arrays_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_arrays: ragged")
    (fun () -> ignore (Matrix.of_arrays [| [| 1. |]; [| 1.; 2. |] |]))

let test_of_list_roundtrip () =
  let m = Matrix.of_list [ [ 1.; 2. ]; [ 3.; 4. ] ] in
  let a = Matrix.to_arrays m in
  check_float "0,0" 1. a.(0).(0);
  check_float "1,1" 4. a.(1).(1)

let test_vectors () =
  let r = Matrix.row_vector [| 1.; 2.; 3. |] in
  let c = Matrix.col_vector [| 1.; 2.; 3. |] in
  check_int "row shape" 1 (Matrix.rows r);
  check_int "col shape" 3 (Matrix.rows c);
  Alcotest.check matrix_testable "transpose" c (Matrix.transpose r)

let test_diagonal () =
  let d = Matrix.diagonal [| 2.; 3. |] in
  check_float "d00" 2. (Matrix.get d 0 0);
  check_float "d01" 0. (Matrix.get d 0 1);
  check_float "d11" 3. (Matrix.get d 1 1)

let test_to_scalar () =
  check_float "1x1" 7. (Matrix.to_scalar (Matrix.of_list [ [ 7. ] ]));
  Alcotest.check_raises "2x1" (Invalid_argument "Matrix.to_scalar: not a 1x1 matrix")
    (fun () -> ignore (Matrix.to_scalar (Matrix.col_vector [| 1.; 2. |])))

(* ------------------------------------------------------------------ *)
(* Matrix: algebra                                                     *)
(* ------------------------------------------------------------------ *)

let m22 a b c d = Matrix.of_list [ [ a; b ]; [ c; d ] ]

let test_add_sub () =
  let a = m22 1. 2. 3. 4. and b = m22 5. 6. 7. 8. in
  Alcotest.check matrix_testable "a+b" (m22 6. 8. 10. 12.) (Matrix.add a b);
  Alcotest.check matrix_testable "a+b-b" a (Matrix.sub (Matrix.add a b) b)

let test_mul_known () =
  let a = m22 1. 2. 3. 4. and b = m22 5. 6. 7. 8. in
  Alcotest.check matrix_testable "product" (m22 19. 22. 43. 50.) (Matrix.mul a b)

let test_mul_identity () =
  let a = m22 1. 2. 3. 4. in
  Alcotest.check matrix_testable "a*I" a (Matrix.mul a (Matrix.identity 2));
  Alcotest.check matrix_testable "I*a" a (Matrix.mul (Matrix.identity 2) a)

let test_mul_mismatch () =
  Alcotest.check_raises "2x2 * 3x1" (Invalid_argument "Matrix.mul: 2x2 * 3x1")
    (fun () ->
      ignore (Matrix.mul (Matrix.identity 2) (Matrix.col_vector [| 1.; 2.; 3. |])))

let test_mul_rectangular () =
  let a = Matrix.of_list [ [ 1.; 2.; 3. ] ] in
  let b = Matrix.col_vector [| 4.; 5.; 6. |] in
  check_float "dot" 32. (Matrix.to_scalar (Matrix.mul a b))

let test_scale_neg () =
  let a = m22 1. (-2.) 3. 4. in
  Alcotest.check matrix_testable "scale" (m22 2. (-4.) 6. 8.) (Matrix.scale 2. a);
  Alcotest.check matrix_testable "neg" (Matrix.scale (-1.) a) (Matrix.neg a)

let test_transpose_involution () =
  let a = Matrix.of_list [ [ 1.; 2.; 3. ]; [ 4.; 5.; 6. ] ] in
  Alcotest.check matrix_testable "ttB" a (Matrix.transpose (Matrix.transpose a))

let test_hcat_vcat () =
  let a = m22 1. 2. 3. 4. in
  let h = Matrix.hcat a a in
  let v = Matrix.vcat a a in
  check_int "hcat cols" 4 (Matrix.cols h);
  check_int "vcat rows" 4 (Matrix.rows v);
  check_float "hcat entry" 2. (Matrix.get h 0 3);
  check_float "vcat entry" 3. (Matrix.get v 3 0)

let test_block () =
  let a = m22 1. 2. 3. 4. in
  let z = Matrix.zeros ~rows:2 ~cols:2 in
  let blk = Matrix.block [| [| a; z |]; [| z; a |] |] in
  check_int "size" 4 (Matrix.rows blk);
  check_float "top-left" 1. (Matrix.get blk 0 0);
  check_float "bottom-right" 4. (Matrix.get blk 3 3);
  check_float "off-block" 0. (Matrix.get blk 0 2)

let test_submatrix () =
  let a = Matrix.init ~rows:4 ~cols:4 (fun i j -> float_of_int ((i * 4) + j)) in
  let s = Matrix.submatrix a ~row:1 ~col:2 ~rows:2 ~cols:2 in
  check_float "s00" 6. (Matrix.get s 0 0);
  check_float "s11" 11. (Matrix.get s 1 1)

(* ------------------------------------------------------------------ *)
(* Matrix: solving                                                     *)
(* ------------------------------------------------------------------ *)

let test_solve_known () =
  (* x + y = 3; 2x - y = 0  =>  x = 1, y = 2 *)
  let a = m22 1. 1. 2. (-1.) in
  let b = Matrix.col_vector [| 3.; 0. |] in
  let x = Matrix.solve a b in
  check_float "x" 1. (Matrix.get x 0 0);
  check_float "y" 2. (Matrix.get x 1 0)

let test_solve_singular () =
  let a = m22 1. 2. 2. 4. in
  Alcotest.check_raises "singular" (Failure "Matrix.solve: singular") (fun () ->
      ignore (Matrix.solve a (Matrix.identity 2)))

let inverse a = Matrix.solve a (Matrix.identity (Matrix.rows a))

let test_inverse_known () =
  let a = m22 4. 7. 2. 6. in
  let expected = m22 0.6 (-0.7) (-0.2) 0.4 in
  Alcotest.check matrix_testable "inverse" expected (inverse a)

let test_inverse_needs_pivot () =
  (* Leading zero forces a row swap. *)
  let a = m22 0. 1. 1. 0. in
  Alcotest.check matrix_testable "swap inverse" a (inverse a)

let test_norms () =
  let a = m22 3. 4. 0. 0. in
  check_float "frobenius" 5. (Matrix.frobenius_norm a);
  check_float "max_abs" 4. (Matrix.max_abs a)

let test_predicates () =
  check_bool "symmetric" true (Matrix.is_symmetric (m22 1. 2. 2. 5.));
  check_bool "asymmetric" false (Matrix.is_symmetric (m22 1. 2. 3. 5.));
  check_float "trace" 6. (Matrix.trace (m22 1. 2. 3. 5.))

(* ------------------------------------------------------------------ *)
(* Matrix: properties (qcheck)                                         *)
(* ------------------------------------------------------------------ *)

let gen_matrix n =
  QCheck2.Gen.(
    array_size (return (n * n)) (float_range (-10.) 10.)
    |> map (fun data -> Matrix.init ~rows:n ~cols:n (fun i j -> data.((i * n) + j))))

let prop_transpose_distributes_mul =
  QCheck2.Test.make ~name:"(AB)' = B'A'" ~count:100
    QCheck2.Gen.(pair (gen_matrix 3) (gen_matrix 3))
    (fun (a, b) ->
      Matrix.equal ~tol:1e-6
        (Matrix.transpose (Matrix.mul a b))
        (Matrix.mul (Matrix.transpose b) (Matrix.transpose a)))

let prop_add_commutes =
  QCheck2.Test.make ~name:"A+B = B+A" ~count:100
    QCheck2.Gen.(pair (gen_matrix 4) (gen_matrix 4))
    (fun (a, b) -> Matrix.equal (Matrix.add a b) (Matrix.add b a))

let prop_mul_associative =
  QCheck2.Test.make ~name:"(AB)C = A(BC)" ~count:100
    QCheck2.Gen.(triple (gen_matrix 3) (gen_matrix 3) (gen_matrix 3))
    (fun (a, b, c) ->
      Matrix.equal ~tol:1e-4
        (Matrix.mul (Matrix.mul a b) c)
        (Matrix.mul a (Matrix.mul b c)))

let prop_solve_solves =
  QCheck2.Test.make ~name:"A * solve(A,b) = b (well-conditioned A)" ~count:100
    QCheck2.Gen.(pair (gen_matrix 3) (array_size (return 3) (float_range (-10.) 10.)))
    (fun (a, bv) ->
      (* Shift the diagonal to make A diagonally dominant (avoids
         near-singular random draws). *)
      let a = Matrix.add a (Matrix.scale 50. (Matrix.identity 3)) in
      let b = Matrix.col_vector bv in
      let x = Matrix.solve a b in
      Matrix.equal ~tol:1e-6 (Matrix.mul a x) b)

let prop_inverse_roundtrip =
  QCheck2.Test.make ~name:"A * A^-1 = I (well-conditioned A)" ~count:100
    (gen_matrix 4)
    (fun a ->
      let a = Matrix.add a (Matrix.scale 50. (Matrix.identity 4)) in
      Matrix.equal ~tol:1e-6 (Matrix.mul a (inverse a)) (Matrix.identity 4))

(* ------------------------------------------------------------------ *)
(* Riccati                                                             *)
(* ------------------------------------------------------------------ *)

(* Max-abs entry of F(P) - P, F the DARE's right-hand side, relative to
   max(1, max-abs P): a direct check that [P] solves the equation. *)
let dare_residual ~a ~b ~q ~r p =
  let atp = Matrix.mul (Matrix.transpose a) p in
  let atpb = Matrix.mul atp b in
  let inner = Matrix.add r (Matrix.mul (Matrix.transpose b) (Matrix.mul p b)) in
  let f =
    Matrix.add q
      (Matrix.sub (Matrix.mul atp a)
         (Matrix.mul atpb (Matrix.solve inner (Matrix.transpose atpb))))
  in
  Matrix.max_abs (Matrix.sub f p) /. Float.max 1. (Matrix.max_abs p)

let test_dare_scalar () =
  (* Scalar DARE with a=0.5, b=1, q=1, r=1:
     p = a²p − a²p²/(r+p) + q.  Solve quadratically: p ≈ 1.1861407. *)
  let a = Matrix.of_list [ [ 0.5 ] ]
  and b = Matrix.of_list [ [ 1. ] ]
  and q = Matrix.identity 1
  and r = Matrix.identity 1 in
  match Riccati.solve ~a ~b ~q ~r with
  | Error e -> Alcotest.failf "DARE failed: %a" Riccati.pp_error e
  | Ok p ->
      let pv = Matrix.to_scalar p in
      (* verify the fixed point directly *)
      let rhs = (0.25 *. pv) -. (0.25 *. pv *. pv /. (1. +. pv)) +. 1. in
      check_float_loose "fixed point" pv rhs

let test_dare_residual () =
  let a = Matrix.of_list [ [ 0.9; 0.1 ]; [ 0.; 0.8 ] ] in
  let b = Matrix.of_list [ [ 1.; 0. ]; [ 0.; 1. ] ] in
  let q = Matrix.identity 2 in
  let r = Matrix.scale 0.5 (Matrix.identity 2) in
  match Riccati.solve ~a ~b ~q ~r with
  | Error e -> Alcotest.failf "DARE failed: %a" Riccati.pp_error e
  | Ok p ->
      check_bool "residual small" true (dare_residual ~a ~b ~q ~r p < 1e-12);
      check_bool "symmetric" true (Matrix.is_symmetric ~tol:0. p)

let test_dare_dimension_mismatch () =
  let a = Matrix.identity 2
  and b = Matrix.col_vector [| 1.; 1. |]
  and q = Matrix.identity 3
  and r = Matrix.identity 1 in
  match Riccati.solve ~a ~b ~q ~r with
  | Error (Riccati.Dimension_mismatch _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Dimension_mismatch"

let test_dare_stabilizing () =
  (* Unstable plant a=1.2 must be stabilized: |a - b*k| < 1 where
     k = (r + b'pb)^-1 b'pa. *)
  let a = Matrix.of_list [ [ 1.2 ] ]
  and b = Matrix.of_list [ [ 1. ] ]
  and q = Matrix.identity 1
  and r = Matrix.identity 1 in
  match Riccati.solve ~a ~b ~q ~r with
  | Error e -> Alcotest.failf "DARE failed: %a" Riccati.pp_error e
  | Ok p ->
      let pv = Matrix.to_scalar p in
      let k = pv *. 1.2 /. (1. +. pv) in
      check_bool "closed loop stable" true (abs_float (1.2 -. k) < 1.)

(* B = 0 leaves every mode undriven, so no stabilizing P exists, and
   the error counts the doubling steps taken.  With A = 2 the doubling's
   iterate H_k = (4^(2^k) - 1)/3 overflows at the 10th doubling.  With
   A = 1, a mode on the unit circle, H_k = 2^k doubles every doubling
   and never settles: the solve gives up after 64 doublings, although
   the relative residual of that huge iterate, 1/H = 2^-64, is tiny —
   convergence, not the residual, is what rejects it. *)
let test_dare_unstabilizable () =
  let b = Matrix.of_list [ [ 0. ] ] and q = Matrix.identity 1 and r = Matrix.identity 1 in
  (match Riccati.solve ~a:(Matrix.of_list [ [ 2. ] ]) ~b ~q ~r with
  | Error (Riccati.Not_converged { doublings; residual }) ->
      check_int "overflowing doubling" 10 doublings;
      check_bool "no residual of a non-finite iterate" true (Float.is_nan residual)
  | Ok _ | Error _ -> Alcotest.fail "A = 2: expected Not_converged");
  match Riccati.solve ~a:(Matrix.identity 1) ~b ~q ~r with
  | Error (Riccati.Not_converged { doublings; residual }) ->
      check_int "doubling cap" 64 doublings;
      check_bool "residual of H = 2^64" true (residual < 1e-19)
  | Ok _ | Error _ -> Alcotest.fail "A = 1: expected Not_converged"

(* The doubling converges quadratically, so a solve costs a handful of
   doublings: this 10-state, 2-input problem takes 10, which allocate
   682 008 B of fresh matrices (residual check included), counted in a
   closed window ({!Alloc.bytes}) that reads the same every run.  A
   solver that fell back to linear convergence would take hundreds of
   iterations and blow the budget, 682 KB plus 25 % (about two more
   doublings). *)
let test_dare_doubling_budget () =
  let n = 10 and m = 2 in
  let a =
    Matrix.init ~rows:n ~cols:n (fun i j ->
        if i = j then 0.9 else if j = i + 1 then 0.2
        else if i = j + 2 then -0.05 else 0.)
  in
  let b = Matrix.init ~rows:n ~cols:m (fun i j -> if i mod m = j then 1. else 0.1) in
  let q = Matrix.identity n and r = Matrix.diagonal [| 1.; 2. |] in
  (match Riccati.solve ~a ~b ~q ~r with
  | Ok p -> check_bool "solved" true (dare_residual ~a ~b ~q ~r p <= 1e-9)
  | Error e -> Alcotest.failf "DARE failed: %a" Riccati.pp_error e);
  let _, bytes = Alloc.bytes (fun () -> Riccati.solve ~a ~b ~q ~r) in
  let budget = 682e3 *. 1.25 in
  check_bool (Printf.sprintf "Riccati.solve: %.0f B (budget %.0f)" bytes budget) true
    (bytes <= budget)

(* ------------------------------------------------------------------ *)
(* Kernel oracles: the allocating code the in-place kernels replaced   *)
(* ------------------------------------------------------------------ *)

let bits m = Array.map (Array.map Int64.bits_of_float) (Matrix.to_arrays m)

let same_bits a b =
  Matrix.rows a = Matrix.rows b && Matrix.cols a = Matrix.cols b && bits a = bits b

(* The array-of-rows product, skipping zero multipliers. *)
let oracle_mul a b =
  let a = Matrix.to_arrays a and b = Matrix.to_arrays b in
  let p = Array.length b.(0) in
  let d = Array.make_matrix (Array.length a) p 0. in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun k aik ->
          if aik <> 0. then
            for j = 0 to p - 1 do
              d.(i).(j) <- d.(i).(j) +. (aik *. b.(k).(j))
            done)
        row)
    a;
  Matrix.of_arrays d

let oracle_transpose m =
  Matrix.init ~rows:(Matrix.cols m) ~cols:(Matrix.rows m) (fun i j -> Matrix.get m j i)

(* Gaussian elimination with partial pivoting on arrays of rows,
   swapping row pointers; returns the solution and the determinant. *)
let oracle_gauss_solve a b =
  let n = Matrix.rows a and nb = Matrix.cols b in
  let m = Matrix.to_arrays a and rhs = Matrix.to_arrays b in
  let det = ref 1. in
  for k = 0 to n - 1 do
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if abs_float m.(i).(k) > abs_float m.(!pivot).(k) then pivot := i
    done;
    if !pivot <> k then begin
      let tmp = m.(k) in
      m.(k) <- m.(!pivot);
      m.(!pivot) <- tmp;
      let tmp = rhs.(k) in
      rhs.(k) <- rhs.(!pivot);
      rhs.(!pivot) <- tmp;
      det := -. !det
    end;
    let p = m.(k).(k) in
    if abs_float p < 1e-300 then failwith "Matrix.solve: singular";
    det := !det *. p;
    for i = k + 1 to n - 1 do
      let f = m.(i).(k) /. p in
      if f <> 0. then begin
        for j = k to n - 1 do
          m.(i).(j) <- m.(i).(j) -. (f *. m.(k).(j))
        done;
        for j = 0 to nb - 1 do
          rhs.(i).(j) <- rhs.(i).(j) -. (f *. rhs.(k).(j))
        done
      end
    done
  done;
  let x = Array.make_matrix n nb 0. in
  for j = 0 to nb - 1 do
    for i = n - 1 downto 0 do
      let s = ref rhs.(i).(j) in
      for k = i + 1 to n - 1 do
        s := !s -. (m.(i).(k) *. x.(k).(j))
      done;
      x.(i).(j) <- !s /. m.(i).(i)
    done
  done;
  (Matrix.of_arrays x, !det)

let oracle_max_abs m =
  Array.fold_left (fun acc x -> max acc (abs_float x)) 0.
    (Array.concat (Array.to_list (Matrix.to_arrays m)))

(* A random matrix with about a quarter of its entries exactly zero. *)
let random_matrix g ~rows ~cols =
  Matrix.init ~rows ~cols (fun _ _ ->
      if Prng.int g 4 = 0 then 0. else Prng.uniform g ~lo:(-10.) ~hi:10.)

let test_mul_into_matches_oracle () =
  let g = Prng.create 31L in
  for _ = 1 to 200 do
    let r = 1 + Prng.int g 7 and k = 1 + Prng.int g 7 and c = 1 + Prng.int g 7 in
    let a = random_matrix g ~rows:r ~cols:k and b = random_matrix g ~rows:k ~cols:c in
    let dst = Matrix.create ~rows:r ~cols:c nan in
    Matrix.mul_into ~dst a b;
    check_bool "mul_into bits" true (same_bits (oracle_mul a b) dst);
    check_bool "transpose bits" true (same_bits (oracle_transpose a) (Matrix.transpose a))
  done

let outcome f = match f () with x -> Ok x | exception Failure msg -> Error msg

(* The oracle's determinant (0 for a singular matrix), pinned to known
   values. *)
let test_determinant () =
  let det a =
    match oracle_gauss_solve a (Matrix.identity (Matrix.rows a)) with
    | _, d -> d
    | exception Failure _ -> 0.
  in
  check_float "det 2x2" (-2.) (det (m22 1. 2. 3. 4.));
  check_float "det I" 1. (det (Matrix.identity 5));
  check_float "det singular" 0. (det (m22 1. 2. 2. 4.))

let test_solve_into_matches_oracle () =
  let g = Prng.create 97L in
  let singular = ref 0 and swapped = ref 0 in
  for case = 1 to 100 do
    let n = 1 + Prng.int g 6 and nb = 1 + Prng.int g 4 in
    let a = Matrix.to_arrays (random_matrix g ~rows:n ~cols:n) in
    (match case mod 4 with
    | 0 when n > 1 ->
        (* a repeated row: exactly singular *)
        a.(n - 1) <- Array.copy a.(0);
        incr singular
    | 1 ->
        (* a zero leading column entry forces a pivot swap *)
        a.(0).(0) <- 0.;
        if n > 1 then incr swapped
    | _ -> ());
    let a = Matrix.of_arrays a and b = random_matrix g ~rows:n ~cols:nb in
    let lu = Matrix.zeros ~rows:n ~cols:n and dst = Matrix.zeros ~rows:n ~cols:nb in
    let expected = outcome (fun () -> oracle_gauss_solve a b) in
    let got = outcome (fun () -> Matrix.solve_into ~lu ~dst a b; dst) in
    match (expected, got) with
    | Ok (x, _), Ok x' ->
        check_bool "solution bits" true (same_bits x x');
        check_bool "wrapper bits" true (same_bits x (Matrix.solve a b))
    | Error m, Error m' -> Alcotest.(check string) "singular message" m m'
    | _ -> Alcotest.failf "case %d: outcomes differ" case
  done;
  check_bool "cases exercised" true (!singular > 10 && !swapped > 10)

let test_solve_into_in_place () =
  (* lu = a and dst = b: the destructive form the Riccati step uses. *)
  let a = Matrix.of_list [ [ 0.; 2.; 1. ]; [ 3.; 1.; 0. ]; [ 1.; 0.; 4. ] ] in
  let b = Matrix.of_list [ [ 1.; 2. ]; [ 3.; 4. ]; [ 5.; 6. ] ] in
  let x = Matrix.solve a b in
  Matrix.solve_into ~lu:a ~dst:b a b;
  check_bool "in-place solution" true (same_bits x b);
  let c = Matrix.identity 3 in
  Alcotest.check_raises "lu aliasing the rhs"
    (Invalid_argument "Matrix.solve_into: lu aliases the right-hand side")
    (fun () -> Matrix.solve_into ~lu:c ~dst:c a c)

let test_max_abs_nan_inf () =
  let v l = Matrix.row_vector (Array.of_list l) in
  let pin name expected m =
    let got = Matrix.max_abs m in
    check_bool (name ^ " = oracle") true
      (Int64.bits_of_float got = Int64.bits_of_float (oracle_max_abs m));
    check_bool name true
      (if Float.is_nan expected then Float.is_nan got else got = expected)
  in
  (* A NaN wins only until a later entry replaces it. *)
  pin "nan last" nan (v [ 1.; nan ]);
  pin "nan first" 1. (v [ nan; 1. ]);
  pin "nan then zero" 0. (v [ nan; 0. ]);
  pin "all nan" nan (v [ nan; nan ]);
  pin "inf" infinity (v [ 1.; neg_infinity; 2. ]);
  pin "inf then nan" nan (v [ infinity; nan ]);
  pin "nan then inf" infinity (v [ nan; infinity ]);
  pin "negative zero" 0. (v [ -0. ])

(* The value iteration the library ran before the doubling solver:
   fresh matrices every step, the oracle product and solver, starting
   from P = Q and stopping when no entry moves by more than 1e-10, or
   after 10_001 steps. *)
let oracle_dare ~a ~b ~q ~r =
  let at = oracle_transpose a and bt = oracle_transpose b in
  let step p =
    let atp = oracle_mul at p in
    let atpa = oracle_mul atp a in
    let atpb = oracle_mul atp b in
    let inner = Matrix.add r (oracle_mul (oracle_mul bt p) b) in
    match oracle_gauss_solve inner (oracle_transpose atpb) with
    | exception Failure _ -> None
    | x, _ -> Some (Matrix.add q (Matrix.sub atpa (oracle_mul atpb x)))
  in
  let rec loop i p =
    match step p with
    | None -> Error "singular"
    | Some p' ->
        if oracle_max_abs (Matrix.sub p' p) <= 1e-10 then Ok p'
        else if i >= 10_000 then Error "capped"
        else loop (i + 1) p'
  in
  loop 0 q

(* SDA's P and the oracle's agree within [dare_tol] of the oracle's
   largest entry.  The oracle stops when a step moves no entry by more
   than 1e-10, so its own P sits up to ~1e-10 / (1 - ρ) off the fixed
   point, ρ the closed-loop spectral radius (up to 0.9996 here); 1e-7
   relative holds that with room on every problem below. *)
let dare_tol = 1e-7

let close_to_oracle name (a, b, q, r) =
  match (oracle_dare ~a ~b ~q ~r, Riccati.solve ~a ~b ~q ~r) with
  | Ok expected, Ok p ->
      let gap = oracle_max_abs (Matrix.sub p expected) /. oracle_max_abs expected in
      check_bool (Printf.sprintf "%s: relative gap %.1e" name gap) true (gap <= dare_tol)
  | Error why, Ok _ -> Alcotest.failf "%s: oracle %s, SDA solved" name why
  | Ok _, Error e -> Alcotest.failf "%s: SDA failed: %a" name Riccati.pp_error e
  | Error _, Error _ -> ()

(* The design flow's realization: [Arx.to_statespace] of a (2, 2)-order
   ARX fit to 200 samples of a random two-output, [m]-input system
   under uniform excitation.  With [twin_inputs] the first two input
   channels carry the same signal, so the fitted DC gain is near rank
   one. *)
let arx_realization ?(twin_inputs = false) g ~m =
  let module Sysid = Spectr_sysid in
  let p = 2 and length = 200 in
  let gain = Array.init p (fun _ -> Array.init m (fun _ -> Prng.uniform g ~lo:(-1.) ~hi:1.)) in
  let u =
    Array.init length (fun _ -> Array.init m (fun _ -> Prng.uniform g ~lo:(-1.) ~hi:1.))
  in
  if twin_inputs then Array.iter (fun ut -> ut.(1) <- ut.(0)) u;
  let y = Array.make_matrix length p 0. in
  for t = 1 to length - 1 do
    for i = 0 to p - 1 do
      let drive = ref (0.5 *. y.(t - 1).(i)) in
      for j = 0 to m - 1 do
        drive := !drive +. (gain.(i).(j) *. u.(t - 1).(j))
      done;
      y.(t).(i) <- !drive +. Prng.uniform g ~lo:(-0.01) ~hi:0.01
    done
  done;
  match Sysid.Arx.fit ~na:2 ~nb:2 (Sysid.Dataset.create ~u ~y) with
  | Error e -> Alcotest.failf "Arx.fit: %a" Sysid.Arx.pp_error e
  | Ok model -> Sysid.Arx.to_statespace model

(* The integrator-augmented LQR problem as [Lqg.design] poses it, with
   [Design_flow]'s integrator weights Qi = 0.1 Qy^2 / max Qy:
   A = [A 0; -C leak*I], B = [B; 0], Q = blkdiag(C' Qy C + 1e-6 I, Qi). *)
let lqg_problem (ss : Spectr_control.Statespace.t) ~leak ~q_y ~r_u =
  let a = ss.a and b = ss.b and c = ss.c in
  let n = Matrix.rows a and p = Matrix.rows c and m = Matrix.cols b in
  let w_max = Array.fold_left Float.max 1e-9 q_y in
  let q_i = Array.map (fun w -> 0.1 *. w *. w /. w_max) q_y in
  let z rows cols = Matrix.zeros ~rows ~cols in
  let a_aug =
    Matrix.block
      [| [| a; z n p |]; [| Matrix.neg c; Matrix.scale leak (Matrix.identity p) |] |]
  in
  let q_state =
    Matrix.add
      (Matrix.mul (Matrix.transpose c) (Matrix.mul (Matrix.diagonal q_y) c))
      (Matrix.scale 1e-6 (Matrix.identity n))
  in
  let q = Matrix.block [| [| q_state; z n p |]; [| z p n; Matrix.diagonal q_i |] |] in
  (a_aug, Matrix.vcat b (z p m), q, Matrix.diagonal r_u)

(* The Kalman filter's DARE: the dual (A', C') with Lqg's covariances. *)
let kalman_problem (ss : Spectr_control.Statespace.t) =
  let n = Matrix.rows ss.a and p = Matrix.rows ss.c in
  ( Matrix.transpose ss.a,
    Matrix.transpose ss.c,
    Matrix.scale 0.01 (Matrix.identity n),
    Matrix.scale 0.1 (Matrix.identity p) )

(* The design flow's DAREs on ARX realizations: the LQR at both leaks
   the ladder tries first, the Kalman dual and a B with an all-zero
   column; then a near-rank-one DC gain. *)
let structured_dares_match_oracle () =
  let g = Prng.create 23L in
  for case = 1 to 6 do
    let m = if case mod 3 = 0 then 4 else 2 in
    let sys = arx_realization g ~m in
    let r_u = Array.init m (fun i -> if i mod 2 = 0 then 1. else 2.) in
    List.iter
      (fun (leak, q_y) ->
        let name = Printf.sprintf "ARX %d, leak %g" case leak in
        let problem = lqg_problem sys ~leak ~q_y ~r_u in
        let a, b, q, r = problem in
        check_bool (name ^ ": oracle converges") true (Result.is_ok (oracle_dare ~a ~b ~q ~r));
        close_to_oracle name problem)
      [ (1.0, [| 30.; 0.1 |]); (0.995, [| 0.1; 30. |]) ];
    close_to_oracle (Printf.sprintf "ARX %d, Kalman dual" case) (kalman_problem sys)
  done;
  (* The twin inputs make the DC gain near rank one, not exactly
     singular, so the weak integrator direction is driven, but barely:
     value iteration crawls along it and hits its 10_001-step cap at
     leak 1, and the doubling's iterate grows from ~14 to ~1e6 over 40
     doublings, then wanders without settling until its 64-doubling cap:
     in doubles, the almost undriven integrator is an undriven one.  So
     the rung test rejects leak 1 and the ladder settles on 0.995, as
     for a DC gain column that is exactly 0 (pixel8pro cluster 2). *)
  let sys = arx_realization ~twin_inputs:true g ~m:2 in
  let q_y = [| 30.; 0.1 |] and r_u = [| 1.; 2. |] in
  let a, b, q, r = lqg_problem sys ~leak:1.0 ~q_y ~r_u in
  check_bool "twin inputs, leak 1: oracle capped" true (oracle_dare ~a ~b ~q ~r = Error "capped");
  (match Riccati.solve ~a ~b ~q ~r with
  | Error (Riccati.Not_converged { doublings; _ }) ->
      check_int "twin inputs, leak 1: doublings" 64 doublings
  | Ok _ | Error _ -> Alcotest.fail "twin inputs, leak 1: expected Not_converged");
  close_to_oracle "twin inputs, leak 0.995" (lqg_problem sys ~leak:0.995 ~q_y ~r_u);
  (match
     Spectr_control.Lqg.design
       ~q_integrator:(Array.map (fun w -> 0.1 *. w *. w /. 30.) q_y)
       ~label:"twin" ~model:sys ~q_y ~r_u ()
   with
  | Ok gains -> check_float "twin inputs: chosen leak" 0.995 gains.Spectr_control.Lqg.leak
  | Error e -> Alcotest.failf "twin inputs: %a" Spectr_control.Lqg.pp_error e);
  (* an input that drives nothing *)
  let a, b, q, r =
    lqg_problem (arx_realization g ~m:2) ~leak:0.995 ~q_y ~r_u
  in
  let b =
    Matrix.init ~rows:(Matrix.rows b) ~cols:2 (fun i j ->
        if j = 1 then 0. else Matrix.get b i j)
  in
  close_to_oracle "zero column of B" (a, b, q, r)

(* The six design keys the gain digests pin (test_kernel): every goal's
   LQR at the leak the ladder chose, and the key's Kalman filter. *)
let design_dares_match_oracle () =
  let module D = Spectr.Design_flow in
  let pixel i = D.cluster_subsystem Spectr_platform.Platform_desc.pixel8pro i in
  let fs_goal = [ { D.label = "power"; q_y = [| 0.1; 30. |] } ] in
  List.iter
    (fun (name, subsystem, goals) ->
      let ident = D.identify subsystem in
      let sys = ident.D.statespace in
      let m = Spectr_control.Statespace.num_inputs sys in
      let r_u = Array.init m (fun i -> if i mod 2 = 0 then 1. else 2.) in
      match D.design_gains ident goals with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok gains ->
          List.iter2
            (fun (goal : D.goal) (g : Spectr_control.Lqg.gains) ->
              close_to_oracle
                (Printf.sprintf "%s %s, leak %g" name goal.label g.leak)
                (lqg_problem sys ~leak:g.leak ~q_y:goal.q_y ~r_u))
            goals gains;
          close_to_oracle (name ^ " Kalman") (kalman_problem sys))
    [
      ("exynos big", D.Big_2x2, Spectr.Mm.goals);
      ("exynos little", D.Little_2x2, Spectr.Mm.goals);
      ("exynos fs", D.Fs_4x2, fs_goal);
      ("pixel8pro c0", pixel 0, Spectr.Mm.goals);
      ("pixel8pro c1", pixel 1, Spectr.Mm.goals);
      ("pixel8pro c2", pixel 2, Spectr.Mm.goals);
    ]

let test_dare_matches_oracle () =
  let g = Prng.create 5L in
  for case = 1 to 20 do
    let n = 1 + Prng.int g 5 and m = 1 + Prng.int g 2 in
    (* spectral radius up to ~1.3: a mix of stable and unstable plants,
       stabilizable through a generic B *)
    let a = Matrix.scale (0.3 /. float_of_int n) (random_matrix g ~rows:n ~cols:n) in
    let b = random_matrix g ~rows:n ~cols:m in
    let c = random_matrix g ~rows:n ~cols:n in
    let q = Matrix.add (oracle_mul (oracle_transpose c) c) (Matrix.identity n) in
    let r = Matrix.diagonal (Array.init m (fun _ -> Prng.uniform g ~lo:0.5 ~hi:3.)) in
    let name = Printf.sprintf "system %d" case in
    check_bool (name ^ ": oracle converges") true (Result.is_ok (oracle_dare ~a ~b ~q ~r));
    close_to_oracle name (a, b, q, r)
  done;
  (* divergent: neither finds a solution *)
  let a = Matrix.of_list [ [ 2. ] ] and b = Matrix.of_list [ [ 0. ] ] in
  let q = Matrix.identity 1 and r = Matrix.identity 1 in
  check_bool "divergent: oracle fails" true (Result.is_error (oracle_dare ~a ~b ~q ~r));
  check_bool "divergent: SDA fails" true (Result.is_error (Riccati.solve ~a ~b ~q ~r));
  structured_dares_match_oracle ();
  design_dares_match_oracle ()

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_mean_std () =
  let x = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Stats.mean x);
  check_float "std" 2. (Stats.std x)

let test_autocorrelation_lag0 () =
  let x = [| 1.; 3.; 2.; 5.; 4. |] in
  check_float "lag 0 is 1" 1. (Stats.autocorrelation x 0)

let test_autocorrelation_symmetric () =
  let x = [| 1.; 3.; 2.; 5.; 4.; 6.; 2. |] in
  check_float "lag +-2 equal" (Stats.autocorrelation x 2)
    (Stats.autocorrelation x (-2))

let test_autocorrelation_alternating () =
  (* A perfectly alternating series has lag-1 autocorrelation -1. *)
  let x = Array.init 100 (fun i -> if i mod 2 = 0 then 1. else -1.) in
  check_float_loose "lag1" (-0.99) (Stats.autocorrelation x 1)

let test_autocorrelation_constant () =
  check_float "zero variance" 0. (Stats.autocorrelation (Array.make 10 3.) 1)

let test_autocorrelations_shape () =
  let x = Array.init 50 float_of_int in
  let acs = Stats.autocorrelations x ~max_lag:5 in
  check_int "count" 11 (Array.length acs);
  let lag, v = acs.(5) in
  check_int "center lag" 0 lag;
  check_float "center value" 1. v

let test_confidence_interval () =
  check_float_loose "n=100" 0.2576 (Stats.confidence_interval_99 100)

let test_r_squared_perfect () =
  let x = [| 1.; 2.; 3. |] in
  check_float "perfect" 1. (Stats.r_squared ~actual:x ~predicted:x)

let test_r_squared_mean_predictor () =
  let actual = [| 1.; 2.; 3.; 4. |] in
  let predicted = Array.make 4 2.5 in
  check_float "mean predictor gives 0" 0. (Stats.r_squared ~actual ~predicted)

let test_fit_percent () =
  let x = [| 1.; 2.; 3. |] in
  check_float "identical" 100. (Stats.fit_percent ~actual:x ~predicted:x)

(* A constant actual series carries nothing to identify: matched exactly
   or not, R² and fit read nan and fail any [>=] gate (the R² >= 0.8
   identifiability gate of Validation). *)
let test_constant_actual_not_identifiable () =
  let zero = Array.make 50 0. in
  let r2 = Stats.r_squared ~actual:zero ~predicted:zero in
  let fit = Stats.fit_percent ~actual:zero ~predicted:zero in
  check_bool "R2 nan" true (Float.is_nan r2);
  check_bool "fit nan" true (Float.is_nan fit);
  check_bool "fails the R2 gate" false (r2 >= 0.8);
  let off = Array.make 50 0.1 in
  check_bool "mispredicted R2 nan" true
    (Float.is_nan (Stats.r_squared ~actual:zero ~predicted:off));
  check_bool "mispredicted fit nan" true
    (Float.is_nan (Stats.fit_percent ~actual:zero ~predicted:off))

let test_rmse () =
  check_float "rmse" 1.
    (Stats.rmse ~actual:[| 0.; 0. |] ~predicted:[| 1.; -1. |])

let test_percentile () =
  let x = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Stats.percentile x 50.);
  check_float "p0" 1. (Stats.percentile x 0.);
  check_float "p100" 5. (Stats.percentile x 100.);
  check_float "p25" 2. (Stats.percentile x 25.)

let test_steady_state_error () =
  let measured = [| 0.; 0.; 55.; 55.; 55. |] in
  (* last 3 samples average 55 against reference 60 -> +8.333 % *)
  check_float_loose "sse" (100. *. 5. /. 60.)
    (Stats.steady_state_error ~reference:60. ~measured ~tail:3)

let test_steady_state_error_negative () =
  let measured = [| 6.; 6.; 6. |] in
  check_float_loose "exceeding" (-20.)
    (Stats.steady_state_error ~reference:5. ~measured ~tail:3)

(* Settling time is the §5.1 responsiveness metric; its one scan lives in
   [Spectr.Metrics.per_phase] (power within 5 % of the envelope).  Feed
   it a one-phase trace whose power column is [y] under a constant
   envelope. *)
let power_settling ~envelope ~dt y =
  let n = Array.length y in
  let cfg = Spectr.Scenario.default_config Spectr_platform.Benchmarks.x264 in
  let template = List.hd cfg.Spectr.Scenario.phases in
  let cfg =
    {
      cfg with
      Spectr.Scenario.phases =
        [
          {
            template with
            Spectr.Scenario.phase_name = "p";
            duration_s = float_of_int n *. dt;
          };
        ];
      controller_period = dt;
    }
  in
  let columns = Spectr.Scenario.columns in
  let trace = Spectr_platform.Trace.create ~cap:n ~columns () in
  Array.iteri
    (fun i p ->
      let row = Array.make (List.length columns) 0. in
      row.(0) <- float_of_int i *. dt;
      row.(3) <- p;
      row.(4) <- envelope;
      Spectr_platform.Trace.add trace row)
    y;
  match Spectr.Metrics.per_phase ~trace ~config:cfg with
  | [ m ] -> m.Spectr.Metrics.power_settling_s
  | _ -> Alcotest.fail "one phase"

let test_settling_time () =
  (* 5 % band around 60 is [57,63]: the last violation is 50 at index 2,
     so the series settles at index 3, i.e. t = 1.5 s with dt = 0.5. *)
  let y = [| 0.; 30.; 50.; 58.; 59.; 60.; 60.; 60. |] in
  (match power_settling ~envelope:60. ~dt:0.5 y with
  | Some t -> check_float "settles at 1.5s" 1.5 t
  | None -> Alcotest.fail "should settle");
  (* The band edge itself counts as settled. *)
  (match power_settling ~envelope:60. ~dt:0.5 [| 0.; 57.; 63. |] with
  | Some t -> check_float "band edges settle" 0.5 t
  | None -> Alcotest.fail "should settle at the band edge");
  match power_settling ~envelope:60. ~dt:0.5 [| 0.; 56. |] with
  | None -> ()
  | Some _ -> Alcotest.fail "should not settle"

let prop_autocorrelation_bounded =
  QCheck2.Test.make ~name:"|autocorrelation| <= 1" ~count:200
    QCheck2.Gen.(
      pair
        (array_size (int_range 3 64) (float_range (-100.) 100.))
        (int_range 0 2))
    (fun (x, k) ->
      QCheck2.assume (k < Array.length x);
      abs_float (Stats.autocorrelation x k) <= 1. +. 1e-9)

let prop_rmse_nonnegative =
  QCheck2.Test.make ~name:"rmse >= 0" ~count:200
    QCheck2.Gen.(
      pair
        (array_size (return 16) (float_range (-5.) 5.))
        (array_size (return 16) (float_range (-5.) 5.)))
    (fun (a, p) -> Stats.rmse ~actual:a ~predicted:p >= 0.)

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42L and b = Prng.create 42L in
  for _ = 1 to 100 do
    check_float "same stream" (Prng.float a) (Prng.float b)
  done

let test_prng_distinct_seeds () =
  let a = Prng.create 1L and b = Prng.create 2L in
  check_bool "different first draw" true (Prng.float a <> Prng.float b)

let test_prng_float_range () =
  let g = Prng.create 7L in
  for _ = 1 to 1000 do
    let x = Prng.float g in
    check_bool "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_prng_uniform () =
  let g = Prng.create 7L in
  for _ = 1 to 100 do
    let x = Prng.uniform g ~lo:2. ~hi:3. in
    check_bool "in [2,3)" true (x >= 2. && x < 3.)
  done

let test_prng_gaussian_moments () =
  let g = Prng.create 11L in
  let xs = Array.init 20_000 (fun _ -> Prng.gaussian g ~mu:5. ~sigma:2.) in
  check_bool "mean near 5" true (abs_float (Stats.mean xs -. 5.) < 0.1);
  check_bool "std near 2" true (abs_float (Stats.std xs -. 2.) < 0.1)

let test_prng_split_independent () =
  let g = Prng.create 3L in
  let h = Prng.split g in
  let a = Prng.float g and b = Prng.float h in
  check_bool "split streams differ" true (a <> b)

let test_prng_int () =
  let g = Prng.create 5L in
  for _ = 1 to 1000 do
    let x = Prng.int g 10 in
    check_bool "in [0,10)" true (x >= 0 && x < 10)
  done

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "spectr_linalg"
    [
      ( "matrix-construction",
        [
          Alcotest.test_case "create fill" `Quick test_create_fill;
          Alcotest.test_case "invalid dims" `Quick test_create_invalid;
          Alcotest.test_case "identity" `Quick test_identity;
          Alcotest.test_case "ragged rejected" `Quick test_of_arrays_ragged;
          Alcotest.test_case "of_list roundtrip" `Quick test_of_list_roundtrip;
          Alcotest.test_case "row/col vectors" `Quick test_vectors;
          Alcotest.test_case "diagonal" `Quick test_diagonal;
          Alcotest.test_case "to_scalar" `Quick test_to_scalar;
        ] );
      ( "matrix-algebra",
        [
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "mul identity" `Quick test_mul_identity;
          Alcotest.test_case "mul mismatch" `Quick test_mul_mismatch;
          Alcotest.test_case "mul rectangular" `Quick test_mul_rectangular;
          Alcotest.test_case "scale/neg" `Quick test_scale_neg;
          Alcotest.test_case "transpose involution" `Quick
            test_transpose_involution;
          Alcotest.test_case "hcat/vcat" `Quick test_hcat_vcat;
          Alcotest.test_case "block" `Quick test_block;
          Alcotest.test_case "submatrix" `Quick test_submatrix;
        ] );
      ( "matrix-solve",
        [
          Alcotest.test_case "solve known" `Quick test_solve_known;
          Alcotest.test_case "solve singular" `Quick test_solve_singular;
          Alcotest.test_case "inverse known" `Quick test_inverse_known;
          Alcotest.test_case "inverse pivot" `Quick test_inverse_needs_pivot;
          Alcotest.test_case "determinant" `Quick test_determinant;
          Alcotest.test_case "norms" `Quick test_norms;
          Alcotest.test_case "predicates" `Quick test_predicates;
        ] );
      ( "matrix-properties",
        [
          qc prop_transpose_distributes_mul;
          qc prop_add_commutes;
          qc prop_mul_associative;
          qc prop_solve_solves;
          qc prop_inverse_roundtrip;
        ] );
      ( "riccati",
        [
          Alcotest.test_case "scalar DARE" `Quick test_dare_scalar;
          Alcotest.test_case "2x2 residual" `Quick test_dare_residual;
          Alcotest.test_case "dimension mismatch" `Quick
            test_dare_dimension_mismatch;
          Alcotest.test_case "stabilizing" `Quick test_dare_stabilizing;
          Alcotest.test_case "not converged counts steps" `Quick
            test_dare_unstabilizable;
          Alcotest.test_case "doubling allocation budget" `Quick
            test_dare_doubling_budget;
        ] );
      ( "kernel-oracles",
        [
          Alcotest.test_case "mul_into = array-of-rows product" `Quick
            test_mul_into_matches_oracle;
          Alcotest.test_case "solve_into = row-pointer elimination" `Quick
            test_solve_into_matches_oracle;
          Alcotest.test_case "solve_into in place" `Quick test_solve_into_in_place;
          Alcotest.test_case "max_abs NaN and inf" `Quick test_max_abs_nan_inf;
          Alcotest.test_case "DARE = allocating value iteration" `Quick
            test_dare_matches_oracle;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/std" `Quick test_mean_std;
          Alcotest.test_case "autocorr lag0" `Quick test_autocorrelation_lag0;
          Alcotest.test_case "autocorr symmetric" `Quick
            test_autocorrelation_symmetric;
          Alcotest.test_case "autocorr alternating" `Quick
            test_autocorrelation_alternating;
          Alcotest.test_case "autocorr constant" `Quick
            test_autocorrelation_constant;
          Alcotest.test_case "autocorrelations shape" `Quick
            test_autocorrelations_shape;
          Alcotest.test_case "99% confidence" `Quick test_confidence_interval;
          Alcotest.test_case "R2 perfect" `Quick test_r_squared_perfect;
          Alcotest.test_case "R2 mean predictor" `Quick
            test_r_squared_mean_predictor;
          Alcotest.test_case "fit percent" `Quick test_fit_percent;
          Alcotest.test_case "constant actual not identifiable" `Quick
            test_constant_actual_not_identifiable;
          Alcotest.test_case "rmse" `Quick test_rmse;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "steady-state error" `Quick
            test_steady_state_error;
          Alcotest.test_case "steady-state negative" `Quick
            test_steady_state_error_negative;
          Alcotest.test_case "settling time" `Quick test_settling_time;
          qc prop_autocorrelation_bounded;
          qc prop_rmse_nonnegative;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "distinct seeds" `Quick test_prng_distinct_seeds;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "uniform range" `Quick test_prng_uniform;
          Alcotest.test_case "gaussian moments" `Quick
            test_prng_gaussian_moments;
          Alcotest.test_case "split independent" `Quick
            test_prng_split_independent;
          Alcotest.test_case "int range" `Quick test_prng_int;
        ] );
    ]
