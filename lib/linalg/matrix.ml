type t = {
  rows : int;
  cols : int;
  data : float array; (* row-major, length rows*cols *)
}

let check_dims name rows cols =
  if rows <= 0 || cols <= 0 then
    invalid_arg (Printf.sprintf "Matrix.%s: dimensions %dx%d" name rows cols)

let create ~rows ~cols x =
  check_dims "create" rows cols;
  { rows; cols; data = Array.make (rows * cols) x }

let zeros ~rows ~cols = create ~rows ~cols 0.

let init ~rows ~cols f =
  check_dims "init" rows cols;
  let data = Array.make (rows * cols) 0. in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.(i * cols + j) <- f i j
    done
  done;
  { rows; cols; data }

let identity n = init ~rows:n ~cols:n (fun i j -> if i = j then 1. else 0.)

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Matrix.of_arrays: empty";
  let cols = Array.length a.(0) in
  if cols = 0 then invalid_arg "Matrix.of_arrays: empty row";
  Array.iter
    (fun r ->
      if Array.length r <> cols then invalid_arg "Matrix.of_arrays: ragged")
    a;
  init ~rows ~cols (fun i j -> a.(i).(j))

let of_list l = of_arrays (Array.of_list (List.map Array.of_list l))
let row_vector v = of_arrays [| Array.copy v |]

let col_vector v =
  let n = Array.length v in
  if n = 0 then invalid_arg "Matrix.col_vector: empty";
  init ~rows:n ~cols:1 (fun i _ -> v.(i))

let diagonal v =
  let n = Array.length v in
  if n = 0 then invalid_arg "Matrix.diagonal: empty";
  init ~rows:n ~cols:n (fun i j -> if i = j then v.(i) else 0.)

let rows m = m.rows
let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg
      (Printf.sprintf "Matrix.get: (%d,%d) out of %dx%d" i j m.rows m.cols);
  m.data.((i * m.cols) + j)

let unsafe_get m i j = m.data.((i * m.cols) + j)
let data m = m.data

let to_arrays m =
  Array.init m.rows (fun i -> Array.init m.cols (fun j -> unsafe_get m i j))

let to_scalar m =
  if m.rows <> 1 || m.cols <> 1 then
    invalid_arg "Matrix.to_scalar: not a 1x1 matrix";
  m.data.(0)

let same_shape name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Matrix.%s: shape %dx%d vs %dx%d" name a.rows a.cols
         b.rows b.cols)

let map f m = { m with data = Array.map f m.data }

let map2 f a b =
  same_shape "map2" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> f a.data.(k) b.data.(k)) }

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let scale s m = map (fun x -> s *. x) m
let neg m = map (fun x -> -.x) m

(* In-place variants for preallocated-buffer hot loops (the MIMO tick
   kernel, the Riccati value iteration).  Each checks shapes like its allocating counterpart and
   performs float-array stores only — no heap allocation.  [mul_into]
   additionally rejects aliasing of [dst] with an operand, since the
   accumulation would read partially-overwritten entries; the
   element-wise ops tolerate aliasing (they are pure pointwise). *)

let add_into ~dst a b =
  same_shape "add_into" a b;
  same_shape "add_into" dst a;
  for k = 0 to Array.length dst.data - 1 do
    dst.data.(k) <- a.data.(k) +. b.data.(k)
  done

let sub_into ~dst a b =
  same_shape "sub_into" a b;
  same_shape "sub_into" dst a;
  for k = 0 to Array.length dst.data - 1 do
    dst.data.(k) <- a.data.(k) -. b.data.(k)
  done

let scale_into ~dst s m =
  same_shape "scale_into" dst m;
  for k = 0 to Array.length dst.data - 1 do
    dst.data.(k) <- s *. m.data.(k)
  done

let neg_into ~dst m =
  same_shape "neg_into" dst m;
  for k = 0 to Array.length dst.data - 1 do
    dst.data.(k) <- -.m.data.(k)
  done

let copy_into ~dst m =
  same_shape "copy_into" dst m;
  Array.blit m.data 0 dst.data 0 (Array.length m.data)

let mul_into ~dst a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Matrix.mul_into: %dx%d * %dx%d" a.rows a.cols b.rows
         b.cols);
  if dst.rows <> a.rows || dst.cols <> b.cols then
    invalid_arg
      (Printf.sprintf "Matrix.mul_into: dst %dx%d for %dx%d product" dst.rows
         dst.cols a.rows b.cols);
  if dst.data == a.data || dst.data == b.data then
    invalid_arg "Matrix.mul_into: dst aliases an operand";
  (* The shapes are checked and every constructor keeps
     [Array.length data = rows * cols], so the indices below are in
     bounds.  Each entry starts at 0 and accumulates a_ik·b_kj over
     ascending k, skipping zero multipliers — the product's definition,
     and {!mul} is this kernel on a fresh destination.  The j loop runs
     two (independent) entries per trip, which changes no entry's
     arithmetic. *)
  let ar = a.rows and ac = a.cols and bc = b.cols in
  let ad = a.data and bd = b.data and dd = dst.data in
  let even = bc land lnot 1 in
  Array.fill dd 0 (ar * bc) 0.;
  for i = 0 to ar - 1 do
    let di = i * bc in
    for k = 0 to ac - 1 do
      let aik = Array.unsafe_get ad ((i * ac) + k) in
      if aik <> 0. then begin
        let bk = k * bc in
        let j = ref 0 in
        while !j < even do
          let d = di + !j and s = bk + !j in
          Array.unsafe_set dd d
            (Array.unsafe_get dd d +. (aik *. Array.unsafe_get bd s));
          Array.unsafe_set dd (d + 1)
            (Array.unsafe_get dd (d + 1) +. (aik *. Array.unsafe_get bd (s + 1)));
          j := !j + 2
        done;
        if even < bc then begin
          let d = di + even in
          Array.unsafe_set dd d
            (Array.unsafe_get dd d +. (aik *. Array.unsafe_get bd (bk + even)))
        end
      end
    done
  done

let transpose_into ~dst m =
  if dst.rows <> m.cols || dst.cols <> m.rows then
    invalid_arg
      (Printf.sprintf "Matrix.transpose_into: dst %dx%d for %dx%d" dst.rows
         dst.cols m.rows m.cols);
  if dst.data == m.data then invalid_arg "Matrix.transpose_into: dst aliases m";
  let r = m.rows and c = m.cols and md = m.data and dd = dst.data in
  for i = 0 to c - 1 do
    for j = 0 to r - 1 do
      Array.unsafe_set dd ((i * r) + j) (Array.unsafe_get md ((j * c) + i))
    done
  done

let mul a b =
  if a.cols <> b.rows then
    invalid_arg
      (Printf.sprintf "Matrix.mul: %dx%d * %dx%d" a.rows a.cols b.rows b.cols);
  let dst = { rows = a.rows; cols = b.cols; data = Array.make (a.rows * b.cols) 0. } in
  mul_into ~dst a b;
  dst

let transpose m =
  let dst = { rows = m.cols; cols = m.rows; data = Array.make (m.rows * m.cols) 0. } in
  transpose_into ~dst m;
  dst

let hcat a b =
  if a.rows <> b.rows then invalid_arg "Matrix.hcat: row mismatch";
  init ~rows:a.rows ~cols:(a.cols + b.cols) (fun i j ->
      if j < a.cols then unsafe_get a i j else unsafe_get b i (j - a.cols))

let vcat a b =
  if a.cols <> b.cols then invalid_arg "Matrix.vcat: column mismatch";
  init ~rows:(a.rows + b.rows) ~cols:a.cols (fun i j ->
      if i < a.rows then unsafe_get a i j else unsafe_get b (i - a.rows) j)

let block grid =
  if Array.length grid = 0 then invalid_arg "Matrix.block: empty";
  let glue_row blocks =
    if Array.length blocks = 0 then invalid_arg "Matrix.block: empty row";
    Array.fold_left
      (fun acc b -> match acc with None -> Some b | Some a -> Some (hcat a b))
      None blocks
    |> Option.get
  in
  Array.fold_left
    (fun acc blocks ->
      let r = glue_row blocks in
      match acc with None -> Some r | Some a -> Some (vcat a r))
    None grid
  |> Option.get

let submatrix m ~row ~col ~rows ~cols =
  if
    row < 0 || col < 0 || rows <= 0 || cols <= 0
    || row + rows > m.rows
    || col + cols > m.cols
  then invalid_arg "Matrix.submatrix: out of range";
  init ~rows ~cols (fun i j -> unsafe_get m (row + i) (col + j))

(* Gaussian elimination with partial pivoting, in place on flat
   row-major stores: [lu] (n×n) holds the coefficients and [x] (n×nb)
   the right-hand side.  A pivot swaps two whole rows of both stores;
   the multipliers then eliminate below the diagonal, and back
   substitution overwrites [x] with the solution.  The arithmetic, its
   order and the pivot choice are those of textbook elimination on an
   augmented array of rows, so results are reproducible bit for bit.
   Raises [Failure] on a numerically singular pivot. *)
let gauss_in_place n nb lu x =
  let swap (d : float array) w r1 r2 =
    for j = 0 to w - 1 do
      let t = Array.unsafe_get d ((r1 * w) + j) in
      Array.unsafe_set d ((r1 * w) + j) (Array.unsafe_get d ((r2 * w) + j));
      Array.unsafe_set d ((r2 * w) + j) t
    done
  in
  for k = 0 to n - 1 do
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if
        abs_float (Array.unsafe_get lu ((i * n) + k))
        > abs_float (Array.unsafe_get lu ((!pivot * n) + k))
      then pivot := i
    done;
    if !pivot <> k then begin
      swap lu n k !pivot;
      swap x nb k !pivot
    end;
    let p = Array.unsafe_get lu ((k * n) + k) in
    if abs_float p < 1e-300 then failwith "Matrix.solve: singular";
    for i = k + 1 to n - 1 do
      let f = Array.unsafe_get lu ((i * n) + k) /. p in
      if f <> 0. then begin
        for j = k to n - 1 do
          Array.unsafe_set lu ((i * n) + j)
            (Array.unsafe_get lu ((i * n) + j)
            -. (f *. Array.unsafe_get lu ((k * n) + j)))
        done;
        for j = 0 to nb - 1 do
          Array.unsafe_set x ((i * nb) + j)
            (Array.unsafe_get x ((i * nb) + j)
            -. (f *. Array.unsafe_get x ((k * nb) + j)))
        done
      end
    done
  done;
  for j = 0 to nb - 1 do
    for i = n - 1 downto 0 do
      let s = ref (Array.unsafe_get x ((i * nb) + j)) in
      for k = i + 1 to n - 1 do
        s := !s -. (Array.unsafe_get lu ((i * n) + k) *. Array.unsafe_get x ((k * nb) + j))
      done;
      Array.unsafe_set x ((i * nb) + j) (!s /. Array.unsafe_get lu ((i * n) + i))
    done
  done

let solve_into ~lu ~dst a b =
  if a.rows <> a.cols then invalid_arg "Matrix.solve: not square";
  if a.rows <> b.rows then invalid_arg "Matrix.solve: rhs rows mismatch";
  same_shape "solve_into" lu a;
  same_shape "solve_into" dst b;
  if lu.data == b.data || lu.data == dst.data then
    invalid_arg "Matrix.solve_into: lu aliases the right-hand side";
  Array.blit a.data 0 lu.data 0 (Array.length a.data);
  Array.blit b.data 0 dst.data 0 (Array.length b.data);
  gauss_in_place a.rows b.cols lu.data dst.data

let solve a b =
  let lu = { a with data = Array.make (Array.length a.data) 0. } in
  let dst = { b with data = Array.make (Array.length b.data) 0. } in
  solve_into ~lu ~dst a b;
  dst

let frobenius_norm m =
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. m.data)

(* [Stdlib.max]'s comparison, specialised to floats: a NaN entry wins
   only until a later entry replaces it, and an infinite entry wins. *)
let max_abs m =
  let d = m.data in
  let acc = ref 0. in
  for k = 0 to Array.length d - 1 do
    let x = abs_float (Array.unsafe_get d k) in
    acc := if !acc >= x then !acc else x
  done;
  !acc

let equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2
       (fun x y -> abs_float (x -. y) <= tol)
       a.data b.data

let is_square m = m.rows = m.cols

let is_symmetric ?(tol = 1e-9) m =
  is_square m
  &&
  let ok = ref true in
  for i = 0 to m.rows - 1 do
    for j = i + 1 to m.cols - 1 do
      if abs_float (unsafe_get m i j -. unsafe_get m j i) > tol then ok := false
    done
  done;
  !ok

let trace m =
  if not (is_square m) then invalid_arg "Matrix.trace: not square";
  let s = ref 0. in
  for i = 0 to m.rows - 1 do
    s := !s +. unsafe_get m i i
  done;
  !s

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "@[<h>[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%10.4f" (unsafe_get m i j)
    done;
    Format.fprintf ppf "]@]";
    if i < m.rows - 1 then Format.fprintf ppf "@,"
  done;
  Format.fprintf ppf "@]"
