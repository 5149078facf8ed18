open Spectr_linalg
open Spectr_control

type t = { qos : float; power : float }

let paper_defaults = { qos = 0.5; power = 0.3 }

let create ~qos ~power =
  if qos < 0. || qos >= 1. || power < 0. || power >= 1. then
    invalid_arg "Guardband.create: guardbands must be in [0,1)";
  { qos; power }

let perturbed_models gb model =
  let p = Statespace.num_outputs model in
  let band i = if i = 0 then gb.qos else gb.power in
  (* enumerate sign vectors over p outputs *)
  let rec signs k =
    if k = 0 then [ [] ] else List.concat_map (fun s -> [ 1. :: s; -1. :: s ]) (signs (k - 1))
  in
  List.map
    (fun sign_list ->
      let signs = Array.of_list sign_list in
      let c =
        Matrix.init ~rows:p
          ~cols:(Statespace.order model)
          (fun i j ->
            Matrix.get model.Statespace.c i j *. (1. +. (signs.(i) *. band i)))
      in
      Statespace.create ~a:model.Statespace.a ~b:model.Statespace.b ~c ())
    (signs p)

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

let robustly_stable gb ~gains =
  let nominal = gains.Lqg.model in
  List.for_all
    (fun plant ->
      let acl = closed_loop_matrix ~gains ~plant in
      let dim = Matrix.rows acl in
      let sys =
        Statespace.create ~a:acl
          ~b:(Matrix.zeros ~rows:dim ~cols:1)
          ~c:(Matrix.zeros ~rows:1 ~cols:dim)
          ()
      in
      Statespace.is_stable sys)
    (perturbed_models gb nominal)
