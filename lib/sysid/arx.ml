open Spectr_linalg

type model = {
  na : int;
  nb : int;
  theta : Matrix.t;
  num_inputs : int;
  num_outputs : int;
}

type error =
  | Not_enough_data of { need : int; have : int }
  | Bad_order of string
  | Singular_regression

let pp_error ppf = function
  | Not_enough_data { need; have } ->
      Format.fprintf ppf "not enough data: need %d samples, have %d" need have
  | Bad_order s -> Format.fprintf ppf "bad order: %s" s
  | Singular_regression ->
      Format.fprintf ppf "singular regression (input not persistently exciting)"

let offset_suffix m = max m.na m.nb

(* Regressor vector φ(t) = [y(t−1)…y(t−na), u(t−1)…u(t−nb)], written
   into [dst] from index [off]. *)
let regressor_into ~na ~nb ~m ~p (u : float array array)
    (y : float array array) t dst off =
  for i = 1 to na do
    for j = 0 to p - 1 do
      dst.(off + ((i - 1) * p) + j) <- y.(t - i).(j)
    done
  done;
  for i = 1 to nb do
    for j = 0 to m - 1 do
      dst.(off + (na * p) + ((i - 1) * m) + j) <- u.(t - i).(j)
    done
  done

let regressor ~na ~nb ~m ~p u y t =
  let phi = Array.make ((na * p) + (nb * m)) 0. in
  regressor_into ~na ~nb ~m ~p u y t phi 0;
  phi

let ridge = 1e-8 (* Tikhonov regularization of the normal equations *)

let fit ~na ~nb data =
  if na < 1 then Error (Bad_order "na must be >= 1")
  else if nb < 1 then Error (Bad_order "nb must be >= 1")
  else begin
    let n = Dataset.length data in
    let m = Dataset.num_inputs data and p = Dataset.num_outputs data in
    let t0 = max na nb in
    let q = (na * p) + (nb * m) in
    let rows = n - t0 in
    if rows < q then Error (Not_enough_data { need = t0 + q; have = n })
    else begin
      let u = data.Dataset.u and y = data.Dataset.y in
      (* Each row of Φ is written once, straight into its storage. *)
      let phi = Matrix.zeros ~rows ~cols:q in
      let phi_data = Matrix.data phi in
      for r = 0 to rows - 1 do
        regressor_into ~na ~nb ~m ~p u y (t0 + r) phi_data (r * q)
      done;
      let targets =
        Matrix.init ~rows ~cols:p (fun r c -> y.(t0 + r).(c))
      in
      let phit = Matrix.transpose phi in
      let gram =
        Matrix.add (Matrix.mul phit phi)
          (Matrix.scale ridge (Matrix.identity q))
      in
      match Matrix.solve gram (Matrix.mul phit targets) with
      | exception Failure _ -> Error Singular_regression
      | theta_t ->
          Ok
            {
              na;
              nb;
              theta = Matrix.transpose theta_t;
              num_inputs = m;
              num_outputs = p;
            }
    end
  end

let predict_row model (u : float array array) (y : float array array) t =
  let { na; nb; num_inputs = m; num_outputs = p; theta } = model in
  let phi = regressor ~na ~nb ~m ~p u y t in
  Array.init p (fun i ->
      let s = ref 0. in
      for c = 0 to Array.length phi - 1 do
        s := !s +. (Matrix.get theta i c *. phi.(c))
      done;
      !s)

let predict_one_step model data =
  let t0 = offset_suffix model in
  let n = Dataset.length data in
  Array.init (n - t0) (fun k ->
      predict_row model data.Dataset.u data.Dataset.y (t0 + k))

let simulate model ~u ~y0 =
  let t0 = offset_suffix model in
  let n = Array.length u in
  if Array.length y0 < t0 then
    invalid_arg "Arx.simulate: y0 shorter than max na nb";
  let result = Array.make n [||] in
  for t = 0 to min (t0 - 1) (n - 1) do
    result.(t) <- Array.copy y0.(t)
  done;
  for t = t0 to n - 1 do
    result.(t) <- predict_row model u result t
  done;
  result

let to_statespace model =
  let { na; nb; num_inputs = m; num_outputs = p; theta } = model in
  let n = (na * p) + (nb * m) in
  let a =
    Matrix.init ~rows:n ~cols:n (fun i j ->
        if i < p then Matrix.get theta i j
        else if i < na * p then
          (* shift y block: row i takes x[i - p] *)
          if j = i - p then 1. else 0.
        else if i < (na * p) + m then 0. (* u(t) rows come from B *)
        else if
          (* shift u block *)
          j = i - m
        then 1.
        else 0.)
  in
  let b =
    Matrix.init ~rows:n ~cols:m (fun i j ->
        if i >= na * p && i < (na * p) + m && j = i - (na * p) then 1. else 0.)
  in
  let c = Matrix.init ~rows:p ~cols:n (fun i j -> Matrix.get theta i j) in
  Spectr_control.Statespace.create ~a ~b ~c ()
