open Spectr_linalg

type t = { a : Matrix.t; b : Matrix.t; c : Matrix.t; d : Matrix.t }

let create ~a ~b ~c ?d () =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Statespace.create: A not square";
  if Matrix.rows b <> n then invalid_arg "Statespace.create: B rows <> n";
  if Matrix.cols c <> n then invalid_arg "Statespace.create: C cols <> n";
  let m = Matrix.cols b and p = Matrix.rows c in
  let d = match d with Some d -> d | None -> Matrix.zeros ~rows:p ~cols:m in
  if Matrix.rows d <> p || Matrix.cols d <> m then
    invalid_arg "Statespace.create: D not p x m";
  { a; b; c; d }

let order sys = Matrix.rows sys.a
let num_inputs sys = Matrix.cols sys.b
let num_outputs sys = Matrix.rows sys.c

let step sys ~x ~u =
  let x' = Matrix.add (Matrix.mul sys.a x) (Matrix.mul sys.b u) in
  let y = Matrix.add (Matrix.mul sys.c x) (Matrix.mul sys.d u) in
  (x', y)

let simulate sys ~u () =
  let x = ref (Matrix.zeros ~rows:(order sys) ~cols:1) in
  Array.map
    (fun ut ->
      let x', y = step sys ~x:!x ~u:ut in
      x := x';
      y)
    u

let dc_gain sys =
  let n = order sys in
  let i_minus_a = Matrix.sub (Matrix.identity n) sys.a in
  Matrix.add (Matrix.mul sys.c (Matrix.solve i_minus_a sys.b)) sys.d

(* Max row sum at most 1/2, the row sums read from the backing store in
   the order [Matrix.to_arrays] + [fold_left] would add them.  A NaN
   sum (a NaN entry, or inf * 0 in an overflowed power) fails [<=]. *)
let halves m =
  let n = Matrix.rows m and d = Matrix.data m in
  let rec row i =
    i = n
    ||
    let s = ref 0. in
    for j = 0 to n - 1 do
      s := !s +. Float.abs d.((i * n) + j)
    done;
    !s <= 0.5 && row (i + 1)
  in
  row 0

(* A^(2^j) by repeated squaring into whichever of two scratch matrices
   does not hold the current power, so no squaring allocates. *)
let decays a =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Statespace.decays: not square";
  let p = Matrix.zeros ~rows:n ~cols:n and q = Matrix.zeros ~rows:n ~cols:n in
  let rec square m j =
    halves m
    || j < 16
       &&
       let dst = if m == p then q else p in
       Matrix.mul_into ~dst m m;
       square dst (j + 1)
  in
  square a 0

let operation_count sys =
  let n = order sys and m = num_inputs sys and p = num_outputs sys in
  (* x' = Ax + Bu : n*n + n*m multiply-adds;  y = Cx + Du : p*n + p*m. *)
  (n * n) + (n * m) + (p * n) + (p * m)

let pp ppf sys =
  Format.fprintf ppf "state-space: n=%d, m=%d, p=%d" (order sys)
    (num_inputs sys) (num_outputs sys)
