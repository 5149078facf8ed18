open Spectr_control
open Spectr_platform

let saved_id : Mimo.saved Type.Id.t = Type.Id.make ()

let make () =
  let ident = Design_flow.identify Design_flow.Fs_4x2 in
  let gains =
    match
      Design_flow.design_gains_for Design_flow.Fs_4x2
        [ { Design_flow.label = "power"; q_y = [| 0.1; 30. |] } ]
    with
    | Ok g -> g
    | Error msg -> failwith ("Fs: " ^ msg)
  in
  let ctrl =
    Design_flow.build_mimo ident ~gains ~initial:"power" ~refs:[| 60.; 5. |]
  in
  let meas = [| 0.; 0. |] and u = [| 0.; 0.; 0.; 0. |] in
  let step ~now:_ ~qos_ref ~envelope ~obs soc =
    Mimo.set_reference ctrl ~index:0 qos_ref;
    Mimo.set_reference ctrl ~index:1 envelope;
    meas.(0) <- obs.Soc.qos_rate;
    meas.(1) <- obs.Soc.chip_power;
    Mimo.step_into ctrl ~measured:meas ~dst:u;
    (* Exynos cluster indices: FS is identified on the reference
       big.LITTLE platform only (Variant.make rejects it elsewhere). *)
    Manager.apply_cluster soc 0 u ~at:0;
    Manager.apply_cluster soc 1 u ~at:2
  in
  let persist =
    Manager.make_persist ~variant:"FS" ~id:saved_id
      ~saved:(fun () -> Mimo.saved ctrl)
      ~copy:(Mimo.copy ctrl)
  in
  { Manager.name = "FS"; step; persist = Some persist }
