open Spectr_linalg

type gains = {
  label : string;
  model : Statespace.t;
  kx : Matrix.t;
  kz : Matrix.t;
  l : Matrix.t;
  leak : float;
}

type error =
  | Lqr_failed of Lqr.error
  | Kalman_failed of Kalman.error
  | Feedthrough_unsupported
  | Bad_weights of string
  | Not_stabilizing

let pp_error ppf = function
  | Lqr_failed e -> Format.fprintf ppf "LQR: %a" Lqr.pp_error e
  | Kalman_failed e -> Format.fprintf ppf "Kalman: %a" Kalman.pp_error e
  | Feedthrough_unsupported -> Format.fprintf ppf "model must have D = 0"
  | Bad_weights s -> Format.fprintf ppf "bad weights: %s" s
  | Not_stabilizing ->
      Format.fprintf ppf "no integrator leak gives a decaying closed loop"

(* Scalar covariance levels of the Kalman design, matching the
   identified models' residual levels. *)
let process_noise = 0.01
let measurement_noise = 0.1

(* Strict stability of a closed-loop matrix: some power A^k, k = 2^j
   for j <= 16 formed by squaring, has max row sum at most 1/2.  That
   bounds the spectral radius by 2^(-1/k) < 1 - 1e-5.  A mode on the
   unit circle (an integrator that no input drives) keeps every power's
   norm at or above 1, and a power that overflows fails the NaN-false
   comparison.  The designed loops pass by j = 12 (spectral radius at
   most 0.9996). *)
let decays acl =
  let halves m =
    Array.for_all
      (fun row -> Array.fold_left (fun s x -> s +. Float.abs x) 0. row <= 0.5)
      (Matrix.to_arrays m)
  in
  let rec square m j = halves m || (j < 16 && square (Matrix.mul m m) (j + 1)) in
  square acl 0

let design ?q_integrator ~label ~model ~q_y ~r_u () =
  let n = Statespace.order model in
  let m = Statespace.num_inputs model in
  let p = Statespace.num_outputs model in
  if Array.length q_y <> p then Error (Bad_weights "q_y length must be p")
  else if Array.length r_u <> m then Error (Bad_weights "r_u length must be m")
  else if Array.exists (fun x -> x <= 0.) r_u then
    Error (Bad_weights "r_u entries must be positive")
  else if Array.exists (fun x -> x < 0.) q_y then
    Error (Bad_weights "q_y entries must be nonnegative")
  else if Matrix.max_abs model.Statespace.d > 0. then
    Error Feedthrough_unsupported
  else begin
    let q_i =
      match q_integrator with
      | Some qi -> qi
      | None -> Array.map (fun w -> 0.1 *. w) q_y
    in
    if Array.length q_i <> p then Error (Bad_weights "q_integrator length")
    else begin
      let a = model.Statespace.a
      and b = model.Statespace.b
      and c = model.Statespace.c in
      (* Augmented system: x_aug = [x; z], with z⁺ = λz + (r − y).
         λ = 1 gives exact integral action, but only where every
         integrator direction is stabilizable: when an input never moves
         (a unicore cluster's cores), a column of the DC gain C(I − A)⁻¹B
         is 0 and one integrator sits on the unit circle undriven.  Each
         rung of the ladder below is therefore accepted by an explicit
         test — the DARE has a stabilizing solution within its residual
         bound ({!Riccati.solve}) and the closed loop strictly decays
         ([decays]) — and otherwise the next, slightly leakier
         integrator is tried, trading a sub-percent steady-state bias
         for a bounded cost-to-go. *)
      let design_with_leak leak =
        let a_aug =
          Matrix.block
            [|
              [| a; Matrix.zeros ~rows:n ~cols:p |];
              [| Matrix.neg c; Matrix.scale leak (Matrix.identity p) |];
            |]
        in
        let b_aug = Matrix.vcat b (Matrix.zeros ~rows:p ~cols:m) in
        (* State cost: output deviations plus integrator cost.
           Q_aug = blkdiag(C' Qy C, Qi) with a tiny state regularization
           so Q stays detectable. *)
        let qy = Matrix.diagonal q_y in
        let q_state =
          Matrix.add
            (Matrix.mul (Matrix.transpose c) (Matrix.mul qy c))
            (Matrix.scale 1e-6 (Matrix.identity n))
        in
        let q_aug =
          Matrix.block
            [|
              [| q_state; Matrix.zeros ~rows:n ~cols:p |];
              [| Matrix.zeros ~rows:p ~cols:n; Matrix.diagonal q_i |];
            |]
        in
        let r = Matrix.diagonal r_u in
        Result.map
          (fun d -> (a_aug, b_aug, d))
          (Lqr.design ~a:a_aug ~b:b_aug ~q:q_aug ~r)
      in
      let rec try_leaks = function
        | [] -> Error Not_stabilizing
        | leak :: rest -> (
            match design_with_leak leak with
            | Ok (a_aug, b_aug, ({ Lqr.k; _ } as d))
              when decays (Lqr.closed_loop_matrix ~a:a_aug ~b:b_aug ~k) ->
                Ok (leak, d)
            | Ok _ -> try_leaks rest
            | Error (Lqr.Riccati_failed _) when rest <> [] -> try_leaks rest
            | Error e -> Error (Lqr_failed e))
      in
      match try_leaks [ 1.0; 0.995; 0.98; 0.95 ] with
      | Error _ as e -> e
      | Ok (leak, { Lqr.k; _ }) -> (
          let kx = Matrix.submatrix k ~row:0 ~col:0 ~rows:m ~cols:n in
          let kz = Matrix.submatrix k ~row:0 ~col:n ~rows:m ~cols:p in
          let qw = Matrix.scale process_noise (Matrix.identity n) in
          let rv = Matrix.scale measurement_noise (Matrix.identity p) in
          match Kalman.design ~a ~c ~qw ~rv with
          | Error e -> Error (Kalman_failed e)
          | Ok { l; _ } -> Ok { label; model; kx; kz; l; leak })
    end
  end

let closed_loop_stable g =
  let model = g.model in
  let n = Statespace.order model in
  let p = Statespace.num_outputs model in
  let a = model.Statespace.a and b = model.Statespace.b and c = model.Statespace.c in
  (* Closed loop of the augmented deterministic system under u = -Kx x - Kz z
     (full state information; estimator convergence is checked separately by
     construction of the Kalman gain). *)
  let a_aug =
    Matrix.block
      [|
        [| a; Matrix.zeros ~rows:n ~cols:p |];
        [| Matrix.neg c; Matrix.scale g.leak (Matrix.identity p) |];
      |]
  in
  let b_aug = Matrix.vcat b (Matrix.zeros ~rows:p ~cols:(Matrix.cols b)) in
  let k = Matrix.hcat g.kx g.kz in
  let acl = Lqr.closed_loop_matrix ~a:a_aug ~b:b_aug ~k in
  let sys =
    Statespace.create ~a:acl
      ~b:(Matrix.zeros ~rows:(n + p) ~cols:1)
      ~c:(Matrix.zeros ~rows:1 ~cols:(n + p))
      ()
  in
  Statespace.is_stable sys
