open Spectr_linalg

type design = { k : Matrix.t; p : Matrix.t }

type error = Riccati_failed of Riccati.error | Bad_weights of string

let pp_error ppf = function
  | Riccati_failed e -> Format.fprintf ppf "Riccati: %a" Riccati.pp_error e
  | Bad_weights s -> Format.fprintf ppf "bad weights: %s" s

(* Positive-definiteness test by attempting an (unpivoted) Cholesky
   factorization; fails iff some leading minor is non-positive. *)
let is_positive_definite m =
  Matrix.is_symmetric ~tol:1e-9 m
  &&
  let n = Matrix.rows m in
  let l = Array.make_matrix n n 0. in
  let ok = ref true in
  (try
     for i = 0 to n - 1 do
       for j = 0 to i do
         let s = ref (Matrix.get m i j) in
         for k = 0 to j - 1 do
           s := !s -. (l.(i).(k) *. l.(j).(k))
         done;
         if i = j then begin
           if !s <= 0. then raise Exit;
           l.(i).(i) <- sqrt !s
         end
         else l.(i).(j) <- !s /. l.(j).(j)
       done
     done
   with Exit -> ok := false);
  !ok

let design ~a ~b ~q ~r =
  let n = Matrix.rows a and m = Matrix.cols b in
  if Matrix.rows q <> n || Matrix.cols q <> n then
    Error (Bad_weights "Q must be n x n")
  else if Matrix.rows r <> m || Matrix.cols r <> m then
    Error (Bad_weights "R must be m x m")
  else if not (is_positive_definite r) then
    Error (Bad_weights "R must be symmetric positive definite")
  else
    match Riccati.solve ~a ~b ~q ~r with
    | Error e -> Error (Riccati_failed e)
    | Ok p ->
        let bt = Matrix.transpose b in
        let btpb = Matrix.mul (Matrix.mul bt p) b in
        let btpa = Matrix.mul (Matrix.mul bt p) a in
        let k = Matrix.solve (Matrix.add r btpb) btpa in
        Ok { k; p }

let closed_loop_matrix ~a ~b ~k = Matrix.sub a (Matrix.mul b k)
