open Spectr_control
open Spectr_platform

let qos_weights = [| 30.; 0.1 |]
let power_weights = [| 0.1; 30. |]
let little_power_budget = 0.45

let goals =
  [
    { Design_flow.label = "qos"; q_y = qos_weights };
    { Design_flow.label = "power"; q_y = power_weights };
  ]

let design_or_fail subsystem goals =
  match Design_flow.design_gains_for subsystem goals with
  | Ok gains -> gains
  | Error msg -> failwith ("Mm.cluster_controllers: " ^ msg)

let cluster_controllers platform ~initial ~refs =
  let k = Platform_desc.num_clusters platform in
  let subsystem_for i = Design_flow.cluster_subsystem platform i in
  let idents =
    Array.init k (fun i -> Design_flow.identify (subsystem_for i))
  in
  Array.init k (fun i ->
      Design_flow.build_mimo idents.(i)
        ~gains:(design_or_fail (subsystem_for i) goals)
        ~initial ~refs:(refs i))

let saved_id : Mimo.saved array Type.Id.t = Type.Id.make ()

let make ~label ~name ~platform () =
  let k = Platform_desc.num_clusters platform in
  let host = Platform_desc.host platform in
  (* A performance-oriented manager wants the secondary clusters fast
     (they absorb background work, shielding the QoS app); a
     power-oriented one wants them capped.  The priority output of the
     chosen gain set is the one that gets pinned. *)
  let secondary_gips_ref = if label = "qos" then 3.0 else 0.0 in
  let ctrls =
    cluster_controllers platform ~initial:label ~refs:(fun i ->
        if i = host then [| 60.; 4. |]
        else [| secondary_gips_ref; little_power_budget |])
  in
  (* The fixed budget split: each secondary cluster gets its static
     budget; the host is offered what the envelope leaves. *)
  let secondary_reserve = little_power_budget *. float_of_int (k - 1) in
  let meas = Array.init k (fun _ -> [| 0.; 0. |]) in
  let cmd = Array.init k (fun _ -> [| 0.; 0. |]) in
  let step ~now:_ ~qos_ref ~envelope ~obs soc =
    (* The fixed managers still receive the system references; they lack
       coordination, not information. *)
    Mimo.set_reference ctrls.(host) ~index:0 qos_ref;
    Mimo.set_reference ctrls.(host) ~index:1
      (Float.max 0.5 (envelope -. secondary_reserve));
    for i = 0 to k - 1 do
      if i <> host then
        Mimo.set_reference ctrls.(i) ~index:1 little_power_budget
    done;
    let powers = Soc.sensor_powers soc in
    let ips = Soc.ips_totals soc in
    for i = 0 to k - 1 do
      let m = meas.(i) in
      let u = cmd.(i) in
      m.(0) <- (if i = host then obs.Soc.qos_rate else ips.(i) /. 1e9);
      m.(1) <- powers.(i);
      Mimo.step_into ctrls.(i) ~measured:m ~dst:u;
      Manager.apply_cluster soc i u ~at:0
    done
  in
  let persist =
    Manager.make_persist
      ~variant:(Manager.platform_variant platform name)
      ~id:saved_id
      ~saved:(fun () -> Array.map Mimo.saved ctrls)
      ~copy:(fun saved ~restore ->
        if Array.length saved <> k then
          invalid_arg
            (Printf.sprintf
               "Mm.copy: %d saved controllers, platform has %d clusters"
               (Array.length saved) k);
        for i = 0 to k - 1 do
          Mimo.copy ctrls.(i) saved.(i) ~restore
        done)
  in
  { Manager.name; step; persist = Some persist }

let make_perf ~platform () = make ~label:"qos" ~name:"MM-Perf" ~platform ()

let make_pow ~platform () = make ~label:"power" ~name:"MM-Pow" ~platform ()
