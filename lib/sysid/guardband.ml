open Spectr_linalg
open Spectr_control

(* The paper's guardbands (§5, footnote 7): 50 % QoS, 30 % power. *)
let qos_band = 0.5
let power_band = 0.3

let perturbed_models model =
  let p = Statespace.num_outputs model in
  let band i = if i = 0 then qos_band else power_band in
  (* Corner k scales output i by 1 + band, or by 1 - band where bit i
     of k is set. *)
  List.init (1 lsl p) (fun k ->
      let c =
        Matrix.init ~rows:p ~cols:(Statespace.order model) (fun i j ->
            let sign = if (k lsr i) land 1 = 0 then 1. else -1. in
            Matrix.get model.Statespace.c i j *. (1. +. (sign *. band i)))
      in
      Statespace.create ~a:model.Statespace.a ~b:model.Statespace.b ~c ())

(* Closed loop of (perturbed plant) + (nominal estimator & feedback):
   state [x_p; x̂; z].  The .mli spells out each block row. *)
let closed_loop_matrix ~(gains : Lqg.gains) ~(plant : Statespace.t) =
  let nominal = gains.Lqg.model in
  let n = Statespace.order nominal in
  let p = Statespace.num_outputs nominal in
  let a = nominal.Statespace.a
  and b = nominal.Statespace.b
  and c = nominal.Statespace.c in
  let ap = plant.Statespace.a
  and bp = plant.Statespace.b
  and cp = plant.Statespace.c in
  let kx = gains.Lqg.kx and kz = gains.Lqg.kz and l = gains.Lqg.l in
  let i_n = Matrix.identity n and i_p = Matrix.identity p in
  let ilc = Matrix.sub i_n (Matrix.mul l c) in
  (* u = -Kx(I-LC) x̂ - (Kx L - Kz) Cp x_p - Kz z *)
  let u_xp = Matrix.neg (Matrix.mul (Matrix.sub (Matrix.mul kx l) kz) cp) in
  let u_xh = Matrix.neg (Matrix.mul kx ilc) in
  let u_z = Matrix.neg kz in
  let row1 =
    [|
      Matrix.add ap (Matrix.mul bp u_xp);
      Matrix.mul bp u_xh;
      Matrix.mul bp u_z;
    |]
  in
  let a_ilc = Matrix.mul a ilc in
  let a_l_cp = Matrix.mul (Matrix.mul a l) cp in
  let row2 =
    [|
      Matrix.add a_l_cp (Matrix.mul b u_xp);
      Matrix.add a_ilc (Matrix.mul b u_xh);
      Matrix.mul b u_z;
    |]
  in
  let row3 =
    [| Matrix.neg cp; Matrix.zeros ~rows:p ~cols:n; Matrix.scale gains.Lqg.leak i_p |]
  in
  Matrix.block [| row1; row2; row3 |]

let robustly_stable (gains : Lqg.gains) =
  List.for_all
    (fun plant -> Statespace.decays (closed_loop_matrix ~gains ~plant))
    (perturbed_models gains.Lqg.model)
