open Spectr_linalg

type channel = {
  name : string;
  offset : float;
  scale : float;
  min : float;
  max : float;
}

let channel ?(offset = 0.) ?(scale = 1.) ?(min = neg_infinity)
    ?(max = infinity) name =
  if scale = 0. then invalid_arg "Mimo.channel: zero scale";
  if min > max then invalid_arg "Mimo.channel: min > max";
  { name; offset; scale; min; max }

(* The controller's mutable state, a record of its own: a checkpoint
   holds a detached twin of it, and one [copy] moves it either way. *)
type saved = {
  mutable active : Lqg.gains;
  refs : float array; (* physical reference values, mutable entries *)
  xhat : Matrix.t; (* n x 1 predicted state *)
  z : Matrix.t; (* p x 1 integrator *)
  u_prev : Matrix.t; (* m x 1 normalized previous command *)
  last : float array; (* m, last physical command *)
  mutable last_valid : bool;
}

type t = {
  gains : (string * Lqg.gains) list;
  inputs : channel array;
  outputs : channel array;
  lims : float array;
      (* [-z_clamp; z_clamp] then each input channel's [min; max]: the
         clamp bounds as unboxed floats, so clamping allocates nothing *)
  (* Scratch for the allocation-free tick path (step_into): every
     intermediate of the control law lives in one of these preallocated
     column vectors.  Dimensions are fixed at create (all gain sets
     agree on n, m, p). *)
  scr_y : Matrix.t; (* p x 1 normalized measurements *)
  scr_r : Matrix.t; (* p x 1 normalized references *)
  scr_err : Matrix.t; (* p x 1 tracking error *)
  scr_zc : Matrix.t; (* p x 1 integrator candidate *)
  scr_p : Matrix.t; (* p x 1 Kalman innovation scratch *)
  scr_xf : Matrix.t; (* n x 1 filtered state *)
  scr_n1 : Matrix.t; (* n x 1 scratch *)
  scr_n2 : Matrix.t; (* n x 1 scratch *)
  scr_m1 : Matrix.t; (* m x 1 unsaturated command *)
  scr_m2 : Matrix.t; (* m x 1 scratch *)
  (* Scratch for the bumpless-transfer solve of [switch_gains], which
     also borrows scr_m2 (Kz_old z) and scr_zc (the right-hand side, then
     z_new): a step writes both before reading them. *)
  sw_kzt : Matrix.t; (* p x m  Kz_new' *)
  sw_gram : Matrix.t; (* p x p  Kz_new' Kz_new + 1e-9 I, then its elimination *)
  innov : float array;
      (* 1 entry: ‖Kalman innovation‖₂ of the last step, in normalized
         output units — the FDIR residual monitor's signal.  A float
         array (not a mutable float field) so the store stays unboxed in
         this mixed record. *)
  s : saved;
}

let dims g =
  ( Statespace.order g.Lqg.model,
    Statespace.num_inputs g.Lqg.model,
    Statespace.num_outputs g.Lqg.model )

let z_clamp = 20. (* integrator bound, normalized units (anti-windup) *)

let create ~gains ~initial ~inputs ~outputs ~refs () =
  (match gains with [] -> invalid_arg "Mimo.create: no gain sets" | _ -> ());
  let labels = List.map (fun g -> g.Lqg.label) gains in
  let rec dup = function
    | [] -> None
    | x :: rest -> if List.mem x rest then Some x else dup rest
  in
  (match dup labels with
  | Some l -> invalid_arg (Printf.sprintf "Mimo.create: duplicate label %S" l)
  | None -> ());
  let d0 = dims (List.hd gains) in
  List.iter
    (fun g ->
      if dims g <> d0 then
        invalid_arg "Mimo.create: gain sets disagree on dimensions")
    gains;
  let n, m, p = d0 in
  if Array.length inputs <> m then invalid_arg "Mimo.create: inputs length";
  if Array.length outputs <> p then invalid_arg "Mimo.create: outputs length";
  if Array.length refs <> p then invalid_arg "Mimo.create: refs length";
  let active =
    match List.find_opt (fun g -> g.Lqg.label = initial) gains with
    | Some g -> g
    | None -> invalid_arg (Printf.sprintf "Mimo.create: unknown label %S" initial)
  in
  {
    gains = List.map (fun g -> (g.Lqg.label, g)) gains;
    inputs;
    outputs;
    lims =
      Array.concat
        ([| -.z_clamp; z_clamp |]
        :: Array.to_list (Array.map (fun ch -> [| ch.min; ch.max |]) inputs));
    scr_y = Matrix.zeros ~rows:p ~cols:1;
    scr_r = Matrix.zeros ~rows:p ~cols:1;
    scr_err = Matrix.zeros ~rows:p ~cols:1;
    scr_zc = Matrix.zeros ~rows:p ~cols:1;
    scr_p = Matrix.zeros ~rows:p ~cols:1;
    scr_xf = Matrix.zeros ~rows:n ~cols:1;
    scr_n1 = Matrix.zeros ~rows:n ~cols:1;
    scr_n2 = Matrix.zeros ~rows:n ~cols:1;
    scr_m1 = Matrix.zeros ~rows:m ~cols:1;
    scr_m2 = Matrix.zeros ~rows:m ~cols:1;
    sw_kzt = Matrix.zeros ~rows:p ~cols:m;
    sw_gram = Matrix.zeros ~rows:p ~cols:p;
    innov = Array.make 1 0.;
    s =
      {
        active;
        refs = Array.copy refs;
        xhat = Matrix.zeros ~rows:n ~cols:1;
        z = Matrix.zeros ~rows:p ~cols:1;
        u_prev = Matrix.zeros ~rows:m ~cols:1;
        last = Array.make m 0.;
        last_valid = false;
      };
  }

let[@inline] normalize ch v = (v -. ch.offset) /. ch.scale
let[@inline] denormalize ch v = (v *. ch.scale) +. ch.offset

(* The allocation-free control period: identical operations in identical
   order to the historical allocating [step] (bit-identical commands —
   the scenario CSV pins depend on it), but every intermediate lands in
   a preallocated scratch vector and the command in the caller's [dst].
   The one intentional difference: the C·x/D·u output equation of
   {!Statespace.step}, whose result was always discarded, is skipped. *)
let step_into ctrl ~measured ~dst =
  let g = ctrl.s.active in
  let model = g.Lqg.model in
  let p = Statespace.num_outputs model in
  let m = Statespace.num_inputs model in
  if Array.length measured <> p then invalid_arg "Mimo.step: measured length";
  if Array.length dst <> m then invalid_arg "Mimo.step_into: dst length";
  (* 1. normalize measurements and references *)
  let yd = Matrix.data ctrl.scr_y and rd = Matrix.data ctrl.scr_r in
  for i = 0 to p - 1 do
    yd.(i) <- normalize ctrl.outputs.(i) measured.(i);
    rd.(i) <- normalize ctrl.outputs.(i) ctrl.s.refs.(i)
  done;
  (* 2. Kalman measurement update on the predicted state *)
  Kalman.correct_into ~l:g.Lqg.l ~c:model.Statespace.c ~xhat:ctrl.s.xhat
    ~y:ctrl.scr_y ~tmp_p:ctrl.scr_p ~tmp_n:ctrl.scr_n1 ~dst:ctrl.scr_xf;
  (* [correct_into] leaves the innovation y − C·x̂ in [scr_p]; its norm
     is the model-consistency residual the FDIR layer watches.  Pure
     extra reads — no draw, no store the control law observes. *)
  let pd = Matrix.data ctrl.scr_p in
  let s2 = ref 0. in
  for i = 0 to p - 1 do
    s2 := !s2 +. (pd.(i) *. pd.(i))
  done;
  ctrl.innov.(0) <- Float.sqrt !s2;
  (* 3. integrator update with the current tracking error (conditional
        anti-windup applied after saturation below) *)
  Matrix.sub_into ~dst:ctrl.scr_err ctrl.scr_r ctrl.scr_y;
  Matrix.scale_into ~dst:ctrl.scr_zc g.Lqg.leak ctrl.s.z;
  Matrix.add_into ~dst:ctrl.scr_zc ctrl.scr_zc ctrl.scr_err;
  (* 4. feedback law on normalized deviations *)
  Matrix.mul_into ~dst:ctrl.scr_m1 g.Lqg.kx ctrl.scr_xf;
  Matrix.mul_into ~dst:ctrl.scr_m2 g.Lqg.kz ctrl.scr_zc;
  Matrix.add_into ~dst:ctrl.scr_m1 ctrl.scr_m1 ctrl.scr_m2;
  Matrix.neg_into ~dst:ctrl.scr_m1 ctrl.scr_m1;
  (* 5. saturate in physical units; keep the normalized saturated
        command for the time update *)
  let ud = Matrix.data ctrl.scr_m1 in
  let und = Matrix.data ctrl.s.u_prev in
  for i = 0 to m - 1 do
    let ch = ctrl.inputs.(i) in
    dst.(i) <-
      Float.min ctrl.lims.((2 * i) + 3)
        (Float.max ctrl.lims.((2 * i) + 2) (denormalize ch ud.(i)));
    und.(i) <- normalize ch dst.(i)
  done;
  (* 6. anti-windup by integrator clamping: each integrator state is
        bounded to ±z_clamp (normalized units).  During an infeasible
        phase the integrators wind to the clamp — sustaining a maximal
        command, which is the desired behaviour for a prioritized
        objective — and unwinding after recovery takes a bounded number
        of periods instead of growing with the infeasible duration. *)
  let zcd = Matrix.data ctrl.scr_zc and zd = Matrix.data ctrl.s.z in
  for i = 0 to p - 1 do
    zd.(i) <- Float.max ctrl.lims.(0) (Float.min ctrl.lims.(1) zcd.(i))
  done;
  (* 7. time update with the saturated command: x' = A·x̂ + B·u *)
  Matrix.mul_into ~dst:ctrl.scr_n1 model.Statespace.a ctrl.scr_xf;
  Matrix.mul_into ~dst:ctrl.scr_n2 model.Statespace.b ctrl.s.u_prev;
  Matrix.add_into ~dst:ctrl.s.xhat ctrl.scr_n1 ctrl.scr_n2;
  Array.blit dst 0 ctrl.s.last 0 m;
  ctrl.s.last_valid <- true

let step ctrl ~measured =
  let dst = Array.make (Statespace.num_inputs ctrl.s.active.Lqg.model) 0. in
  step_into ctrl ~measured ~dst;
  dst

let rec find_gains label = function
  | [] -> invalid_arg (Printf.sprintf "Mimo.switch_gains: unknown label %S" label)
  | (l, g) :: rest -> if String.equal l label then g else find_gains label rest

let switch_gains ctrl label =
  let g = find_gains label ctrl.gains in
  if g != ctrl.s.active then begin
    (* Bumpless transfer: the integrator contribution to the command
       must be continuous across the switch, so solve
       Kz_new · z_new = Kz_old · z_old in the least-squares sense.
       Without this, a wound integrator reinterpreted under different
       gains slams the actuators and can limit-cycle the supervisor.
       The normal equations, solve (Kz' Kz + 1e-9 I) (Kz' contribution),
       are built in the preallocated scratch, so a switch allocates
       nothing; z keeps its value when the system is singular. *)
    let kz = g.Lqg.kz in
    Matrix.mul_into ~dst:ctrl.scr_m2 ctrl.s.active.Lqg.kz ctrl.s.z;
    Matrix.transpose_into ~dst:ctrl.sw_kzt kz;
    Matrix.mul_into ~dst:ctrl.sw_gram ctrl.sw_kzt kz;
    (* + 1e-9 I: off the diagonal that adds 0, a no-op on a product
       entry (which starts at +0 and so is never -0) *)
    let gd = Matrix.data ctrl.sw_gram in
    let p = Matrix.rows ctrl.s.z in
    for i = 0 to p - 1 do
      gd.((i * p) + i) <- gd.((i * p) + i) +. 1e-9
    done;
    Matrix.mul_into ~dst:ctrl.scr_zc ctrl.sw_kzt ctrl.scr_m2;
    (match Matrix.solve_into ~lu:ctrl.sw_gram ~dst:ctrl.scr_zc ctrl.sw_gram ctrl.scr_zc with
    | () -> Matrix.copy_into ~dst:ctrl.s.z ctrl.scr_zc
    | exception Failure _ -> ());
    ctrl.s.active <- g
  end

let available_gains ctrl = List.map fst ctrl.gains

let set_reference ctrl ~index value =
  if index < 0 || index >= Array.length ctrl.s.refs then
    invalid_arg "Mimo.set_reference: index";
  ctrl.s.refs.(index) <- value

let reference ctrl ~index =
  if index < 0 || index >= Array.length ctrl.s.refs then
    invalid_arg "Mimo.reference: index";
  ctrl.s.refs.(index)

let reset ctrl =
  let s = ctrl.s in
  List.iter
    (fun m -> Array.fill (Matrix.data m) 0 (Matrix.rows m) 0.)
    [ s.xhat; s.z; s.u_prev ];
  ctrl.innov.(0) <- 0.;
  s.last_valid <- false

let last_innovation_norm ctrl = ctrl.innov.(0)

let saved ctrl =
  let s = ctrl.s in
  {
    s with
    refs = Array.copy s.refs;
    xhat = Matrix.col_vector (Matrix.data s.xhat);
    z = Matrix.col_vector (Matrix.data s.z);
    u_prev = Matrix.col_vector (Matrix.data s.u_prev);
    last = Array.copy s.last;
  }

let copy_state ~src ~dst =
  Array.blit src.refs 0 dst.refs 0 (Array.length dst.refs);
  Matrix.copy_into ~dst:dst.xhat src.xhat;
  Matrix.copy_into ~dst:dst.z src.z;
  Matrix.copy_into ~dst:dst.u_prev src.u_prev;
  Array.blit src.last 0 dst.last 0 (Array.length dst.last);
  dst.last_valid <- src.last_valid

(* The shape checks run both ways (every vector is a column, so its
   length is its shape); a restore also finds the saved gain label among
   this controller's own gain sets. *)
let copy ctrl s ~restore =
  let live = ctrl.s in
  let shape what a b =
    if Array.length a <> Array.length b then
      invalid_arg ("Mimo.copy: " ^ what ^ " shape")
  in
  shape "refs" s.refs live.refs;
  shape "xhat" (Matrix.data s.xhat) (Matrix.data live.xhat);
  shape "z" (Matrix.data s.z) (Matrix.data live.z);
  shape "u_prev" (Matrix.data s.u_prev) (Matrix.data live.u_prev);
  shape "last" s.last live.last;
  if restore then begin
    (match List.assoc_opt s.active.Lqg.label ctrl.gains with
    | Some g -> live.active <- g
    | None ->
        invalid_arg
          (Printf.sprintf "Mimo.copy: unknown gain label %S" s.active.Lqg.label));
    copy_state ~src:s ~dst:live
  end
  else begin
    s.active <- live.active;
    copy_state ~src:live ~dst:s
  end
