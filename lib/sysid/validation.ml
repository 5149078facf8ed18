open Spectr_linalg

type channel_report = {
  name : string;
  fit_percent : float;
  r_squared : float;
  rmse : float;
  residual_autocorr : (int * float) array;
  confidence99 : float;
  violations : int;
  max_excursion : float;
}

type report = {
  channels : channel_report array;
  simulated : float array array;
  identifiable : bool;
}

(* Residual autocorrelation lags −20..20, as the paper's Figure 15 plots. *)
let max_lag = 20

let validate ?output_names ~model data =
  let p = Dataset.num_outputs data in
  let t0 = Arx.offset_suffix model in
  let names =
    match output_names with
    | Some n ->
        if Array.length n <> p then
          invalid_arg "Validation.validate: output_names length";
        n
    | None -> Array.init p (Printf.sprintf "y%d")
  in
  let simulated =
    Arx.simulate model ~u:data.Dataset.u ~y0:data.Dataset.y
  in
  let one_step = Arx.predict_one_step model data in
  let n_resid = Array.length one_step in
  let channels =
    Array.init p (fun i ->
        let actual_suffix =
          Array.init n_resid (fun k -> data.Dataset.y.(t0 + k).(i))
        in
        let sim_suffix =
          Array.init n_resid (fun k -> simulated.(t0 + k).(i))
        in
        let pred_suffix = Array.map (fun row -> row.(i)) one_step in
        (* The one-step residual y − ŷ, from the one prediction pass. *)
        let res_channel =
          Array.init n_resid (fun k -> actual_suffix.(k) -. pred_suffix.(k))
        in
        let max_lag = min max_lag (n_resid - 1) in
        let acs = Stats.autocorrelations res_channel ~max_lag in
        let conf = Stats.confidence_interval_99 n_resid in
        let nonzero = Array.to_list acs |> List.filter (fun (k, _) -> k <> 0) in
        let violations =
          List.length (List.filter (fun (_, v) -> abs_float v > conf) nonzero)
        in
        let max_excursion =
          List.fold_left
            (fun acc (_, v) -> Float.max acc (abs_float v -. conf))
            neg_infinity nonzero
        in
        {
          name = names.(i);
          fit_percent =
            Stats.fit_percent ~actual:actual_suffix ~predicted:sim_suffix;
          r_squared =
            Stats.r_squared ~actual:actual_suffix ~predicted:pred_suffix;
          rmse = Stats.rmse ~actual:actual_suffix ~predicted:sim_suffix;
          residual_autocorr = acs;
          confidence99 = conf;
          violations;
          max_excursion;
        })
  in
  let identifiable =
    Array.for_all (fun c -> c.r_squared >= 0.8) channels
  in
  { channels; simulated; identifiable }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  Array.iter
    (fun c ->
      Format.fprintf ppf
        "%s: fit %.1f%%, R² %.3f, rmse %.4f, residual violations %d/%d \
         (conf ±%.3f)@,"
        c.name c.fit_percent c.r_squared c.rmse c.violations
        (Array.length c.residual_autocorr - 1)
        c.confidence99)
    r.channels;
  Format.fprintf ppf "identifiable (all R² >= 0.8): %b@]" r.identifiable
