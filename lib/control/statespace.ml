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

(* A^steps by binary powering in four matrices allocated per call:
   [sq] runs through A, A^2, A^4, ... and [acc] takes in the power of
   each set bit of [steps] (9 products for 200 instead of 200).  Column
   k of A^steps is basis vector k after [steps] iterations x <- Ax, and
   the verdict reads each column's norm. *)
let is_stable ?(steps = 200) sys =
  let n = order sys in
  let z () = Matrix.zeros ~rows:n ~cols:n in
  let sq = ref (z ()) and sq' = ref (z ()) in
  let acc = ref (Matrix.identity n) and acc' = ref (z ()) in
  Matrix.copy_into ~dst:!sq sys.a;
  let empty = ref true and e = ref steps in
  while !e > 0 do
    if !e land 1 = 1 then begin
      if !empty then Matrix.copy_into ~dst:!acc !sq
      else begin
        Matrix.mul_into ~dst:!acc' !sq !acc;
        let t = !acc in
        acc := !acc';
        acc' := t
      end;
      empty := false
    end;
    e := !e lsr 1;
    if !e > 0 then begin
      Matrix.mul_into ~dst:!sq' !sq !sq;
      let t = !sq in
      sq := !sq';
      sq' := t
    end
  done;
  let xd = Matrix.data !acc in
  let ok = ref true in
  for k = 0 to n - 1 do
    (* [Matrix.frobenius_norm] of column k: squares summed in row order *)
    let s = ref 0. in
    for i = 0 to n - 1 do
      let x = xd.((i * n) + k) in
      s := !s +. (x *. x)
    done;
    (* [not (<=)]: a NaN norm fails too.  An overflowed power turns
       inf * 0 into NaN where the per-vector iterate stays at inf. *)
    if not (sqrt !s <= 1e3) then ok := false
  done;
  !ok

let operation_count sys =
  let n = order sys and m = num_inputs sys and p = num_outputs sys in
  (* x' = Ax + Bu : n*n + n*m multiply-adds;  y = Cx + Du : p*n + p*m. *)
  (n * n) + (n * m) + (p * n) + (p * m)

let pp ppf sys =
  Format.fprintf ppf "state-space: n=%d, m=%d, p=%d" (order sys)
    (num_inputs sys) (num_outputs sys)
