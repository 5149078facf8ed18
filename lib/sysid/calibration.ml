open Spectr_platform

type sample = {
  s_cluster : string;
  s_freq_mhz : int;
  s_volt : float;
  s_active : int;
  s_total : int;
  s_util : float;
  s_power_w : float;
  s_core_ips : float;
}

let sample_columns =
  [
    "cluster";
    "freq_mhz";
    "volt";
    "active_cores";
    "total_cores";
    "utilization";
    "power_w";
    "core_ips";
  ]

(* --- CSV ------------------------------------------------------------- *)

let sweep_to_csv samples =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (String.concat "," sample_columns);
  Buffer.add_char buf '\n';
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%d,%.4f,%d,%d,%.4f,%.6f,%.1f\n" s.s_cluster
           s.s_freq_mhz s.s_volt s.s_active s.s_total s.s_util s.s_power_w
           s.s_core_ips))
    samples;
  Buffer.contents buf

let sweep_of_csv text =
  let err line msg = Error (Printf.sprintf "line %d: %s" line msg) in
  let header = String.concat "," sample_columns in
  let lines = String.split_on_char '\n' text in
  let rec go lineno seen_header acc = function
    | [] ->
        if not seen_header then Error "empty sweep: missing header row"
        else Ok (List.rev acc)
    | raw :: rest -> (
        let line = String.trim raw in
        if line = "" || line.[0] = '#' then
          go (lineno + 1) seen_header acc rest
        else if not seen_header then
          if line = header then go (lineno + 1) true acc rest
          else err lineno (Printf.sprintf "expected header %S" header)
        else
          match String.split_on_char ',' line with
          | [ cl; f; v; n; tot; u; p; ips ] -> (
              let fld name conv s =
                match conv (String.trim s) with
                | Some x -> Ok x
                | None ->
                    Error
                      (Printf.sprintf "line %d: bad %s %S" lineno name s)
              in
              let ( let* ) = Result.bind in
              let parsed =
                let* f = fld "freq_mhz" int_of_string_opt f in
                let* v = fld "volt" float_of_string_opt v in
                let* n = fld "active_cores" int_of_string_opt n in
                let* tot = fld "total_cores" int_of_string_opt tot in
                let* u = fld "utilization" float_of_string_opt u in
                let* p = fld "power_w" float_of_string_opt p in
                let* ips = fld "core_ips" float_of_string_opt ips in
                let cl = String.trim cl in
                if cl = "" then
                  Error (Printf.sprintf "line %d: empty cluster name" lineno)
                else if f <= 0 || v <= 0. then
                  Error
                    (Printf.sprintf "line %d: non-positive freq/volt" lineno)
                else if tot < 1 || n < 1 || n > tot then
                  Error
                    (Printf.sprintf
                       "line %d: active_cores %d outside [1, total %d]"
                       lineno n tot)
                else if u < 0. || u > 1. then
                  Error
                    (Printf.sprintf "line %d: utilization %g outside [0, 1]"
                       lineno u)
                else if
                  (not (Float.is_finite p))
                  || (not (Float.is_finite ips))
                  || p < 0. || ips <= 0.
                then
                  Error
                    (Printf.sprintf "line %d: non-physical power/ips" lineno)
                else
                  Ok
                    {
                      s_cluster = cl;
                      s_freq_mhz = f;
                      s_volt = v;
                      s_active = n;
                      s_total = tot;
                      s_util = u;
                      s_power_w = p;
                      s_core_ips = ips;
                    }
              in
              match parsed with
              | Ok s -> go (lineno + 1) true (s :: acc) rest
              | Error e -> Error e)
          | cols ->
              err lineno
                (Printf.sprintf "expected %d comma-separated fields, got %d"
                   (List.length sample_columns)
                   (List.length cols)))
  in
  go 1 false [] lines

(* --- least squares --------------------------------------------------- *)

module Matrix = Spectr_linalg.Matrix
module Stats = Spectr_linalg.Stats

(* Solve min ‖Xθ − y‖ by normal equations (the feature counts here are 2
   and 4; conditioning is a non-issue at these sizes).  Columns that are
   identically zero carry no information — a single-core cluster never
   gates a core, so its gated column is all zeros — and would make the
   normal equations singular; they are dropped and their coefficients
   pinned at 0. *)
let rec least_squares rows y =
  let p_full = Array.length rows.(0) in
  let live =
    Array.to_list (Array.init p_full Fun.id)
    |> List.filter (fun j -> Array.exists (fun r -> r.(j) <> 0.) rows)
    |> Array.of_list
  in
  let rows = Array.map (fun r -> Array.map (fun j -> r.(j)) live) rows in
  match least_squares_dense rows y with
  | Error _ as e -> e
  | Ok theta ->
      let out = Array.make p_full 0. in
      Array.iteri (fun i j -> out.(j) <- theta.(i)) live;
      Ok out

(* Non-negative least squares by active-set elimination: solve, drop the
   most-negative coefficient's feature, re-solve — the unconstrained
   optimum over the surviving features redistributes the dropped
   feature's contribution to its correlated peers, where a post-hoc
   clamp would just bias every prediction.  Terminates in ≤ p rounds. *)
and least_squares_nonneg rows y =
  match least_squares rows y with
  | Error _ as e -> e
  | Ok theta ->
      let worst = ref (-1) in
      Array.iteri
        (fun j v ->
          if v < 0. && (!worst < 0 || v < theta.(!worst)) then worst := j)
        theta;
      if !worst < 0 then Ok theta
      else
        let masked = Array.map (fun r -> Array.copy r) rows in
        Array.iter (fun r -> r.(!worst) <- 0.) masked;
        least_squares_nonneg masked y

and least_squares_dense rows y =
  let n = Array.length rows in
  let p = Array.length rows.(0) in
  let xtx =
    Matrix.init ~rows:p ~cols:p (fun i j ->
        let acc = ref 0. in
        for r = 0 to n - 1 do
          acc := !acc +. (rows.(r).(i) *. rows.(r).(j))
        done;
        !acc)
  in
  let xty =
    Matrix.init ~rows:p ~cols:1 (fun i _ ->
        let acc = ref 0. in
        for r = 0 to n - 1 do
          acc := !acc +. (rows.(r).(i) *. y.(r))
        done;
        !acc)
  in
  match Matrix.solve xtx xty with
  | theta -> Ok (Array.init p (fun i -> Matrix.get theta i 0))
  | exception Failure _ -> Error "singular regression (degenerate sweep)"

type cluster_fit = {
  fit_cluster : string;
  fit_samples : int;
  fit_power : Power_model.params;
  fit_power_r2 : float;
  fit_cpi_a : float;
  fit_cpi_b : float;
  fit_ips_r2 : float;
  fit_opp : Opp.t;
  fit_cores : int;
}

(* Group samples by cluster, preserving first-appearance order. *)
let group_by_cluster samples =
  let order = ref [] in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem tbl s.s_cluster) then begin
        order := s.s_cluster :: !order;
        Hashtbl.replace tbl s.s_cluster []
      end;
      Hashtbl.replace tbl s.s_cluster (s :: Hashtbl.find tbl s.s_cluster))
    samples;
  List.rev_map (fun name -> (name, List.rev (Hashtbl.find tbl name))) !order

let opp_of_samples name samples =
  (* Distinct (freq, volt) pairs, ascending; a frequency reported with
     two different voltages is a corrupt sweep. *)
  let tbl = Hashtbl.create 16 in
  let bad = ref None in
  List.iter
    (fun s ->
      match Hashtbl.find_opt tbl s.s_freq_mhz with
      | None -> Hashtbl.replace tbl s.s_freq_mhz s.s_volt
      | Some v ->
          if Float.abs (v -. s.s_volt) > 1e-9 && !bad = None then
            bad := Some s.s_freq_mhz)
    samples;
  match !bad with
  | Some f ->
      Error
        (Printf.sprintf "cluster %s: conflicting voltages for %d MHz" name f)
  | None ->
      let points =
        Hashtbl.fold (fun f v acc -> (f, v) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      (match Opp.create ~name ~points with
      | t -> Ok t
      | exception Invalid_argument msg ->
          Error (Printf.sprintf "cluster %s: %s" name msg))

let fit_cluster name samples =
  let ( let* ) = Result.bind in
  let arr = Array.of_list samples in
  let n = Array.length arr in
  let total = arr.(0).s_total in
  let* () =
    if Array.for_all (fun s -> s.s_total = total) arr then Ok ()
    else
      Error
        (Printf.sprintf "cluster %s: inconsistent total_cores across rows"
           name)
  in
  let* opp = opp_of_samples name samples in
  let* () =
    (* 4 power parameters, 2 CPI parameters; anything smaller cannot be
       identified.  (Distinct points, not rows: duplicates don't add
       rank, but they don't hurt either — the gate is on rows for a
       simple, honest message.) *)
    if n >= 4 then Ok ()
    else
      Error
        (Printf.sprintf "cluster %s: %d samples < 4 model parameters" name n)
  in
  (* Power: P = cdyn·(n·V²·f·u) + leak·(n·(V/V₀)²) + gated·(total−n)
     + uncore·1. *)
  let v0 = Power_model.v0 in
  let power_rows =
    Array.map
      (fun s ->
        let f_ghz = float_of_int s.s_freq_mhz /. 1000. in
        let nf = float_of_int s.s_active in
        [|
          nf *. s.s_volt *. s.s_volt *. f_ghz *. s.s_util;
          nf *. (s.s_volt /. v0) *. (s.s_volt /. v0);
          float_of_int (total - s.s_active);
          1.;
        |])
      arr
  in
  let power_y = Array.map (fun s -> s.s_power_w) arr in
  (* The analytic model's parameters are non-negative by construction
     ([Power_model.params] rightly rejects negatives); noise can still
     drive a tiny true value (typically [gated]) below zero in the
     unconstrained optimum, so fit under the constraint. *)
  let* theta =
    Result.map_error
      (fun e -> Printf.sprintf "cluster %s power fit: %s" name e)
      (least_squares_nonneg power_rows power_y)
  in
  let params =
    Power_model.params ~cdyn_w_per_v2ghz:theta.(0) ~leak_w_per_core:theta.(1)
      ~gated_w_per_core:theta.(2) ~uncore_w:theta.(3)
  in
  let power_pred =
    Array.map
      (fun s ->
        Power_model.cluster_power params ~table:opp ~freq_mhz:s.s_freq_mhz
          ~active_cores:s.s_active ~total_cores:total ~utilization:s.s_util)
      arr
  in
  let power_r2 = Stats.r_squared ~actual:power_y ~predicted:power_pred in
  (* CPI: 1/IPS = a·(1/(f·1e9)) + b·(κ/1e9), κ the contention factor of
     the point's busy-core count. *)
  let cpi_rows =
    Array.map
      (fun s ->
        let f_hz = float_of_int s.s_freq_mhz /. 1000. *. 1e9 in
        let kappa =
          Perf_model.contention_factor
            ~busy_cores:(float_of_int s.s_active)
        in
        [| 1. /. f_hz; kappa /. 1e9 |])
      arr
  in
  let cpi_y = Array.map (fun s -> 1. /. s.s_core_ips) arr in
  let* cpi =
    Result.map_error
      (fun e -> Printf.sprintf "cluster %s CPI fit: %s" name e)
      (least_squares cpi_rows cpi_y)
  in
  let cpi_a = cpi.(0) and cpi_b = cpi.(1) in
  (* Report R² on the measured scale (IPS), not the linearized one — the
     inversion weighs slow points more, and the gate must reflect what
     the simulator will actually reproduce. *)
  let ips_pred =
    Array.map
      (fun s ->
        let f_ghz = float_of_int s.s_freq_mhz /. 1000. in
        let kappa =
          Perf_model.contention_factor
            ~busy_cores:(float_of_int s.s_active)
        in
        f_ghz *. 1e9 /. (cpi_a +. (cpi_b *. kappa *. f_ghz)))
      arr
  in
  let ips_y = Array.map (fun s -> s.s_core_ips) arr in
  let ips_r2 = Stats.r_squared ~actual:ips_y ~predicted:ips_pred in
  Ok
    {
      fit_cluster = name;
      fit_samples = n;
      fit_power = params;
      fit_power_r2 = power_r2;
      fit_cpi_a = cpi_a;
      fit_cpi_b = cpi_b;
      fit_ips_r2 = ips_r2;
      fit_opp = opp;
      fit_cores = total;
    }

let fit samples =
  match samples with
  | [] -> Error "empty sweep"
  | _ ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | (name, rows) :: rest -> (
            match fit_cluster name rows with
            | Ok f -> go (f :: acc) rest
            | Error e -> Error e)
      in
      go [] (group_by_cluster samples)

(* A calibration that cannot reproduce its own sweep to this R² is
   rejected; a constant sweep reads R² = nan and is rejected too. *)
let r2_gate = 0.95

let to_platform ~name ~host ~thermal fits =
  match fits with
  | [] -> Error "no fitted clusters"
  | _ -> (
      let bad =
        List.find_opt
          (fun f -> not (f.fit_power_r2 >= r2_gate && f.fit_ips_r2 >= r2_gate))
          fits
      in
      match bad with
      | Some f ->
          Error
            (Printf.sprintf
               "cluster %s below the R2 gate %.2f (power %.4f, ips %.4f): \
                calibration rejected"
               f.fit_cluster r2_gate f.fit_power_r2 f.fit_ips_r2)
      | None -> (
          match
            List.find_index (fun f -> f.fit_cluster = host) fits
          with
          | None ->
              Error (Printf.sprintf "host %S names no fitted cluster" host)
          | Some host_idx -> (
              let clusters =
                List.map
                  (fun f ->
                    {
                      Platform_desc.cl_name = f.fit_cluster;
                      cores = f.fit_cores;
                      opp = f.fit_opp;
                      power = f.fit_power;
                      cpi =
                        (if f.fit_cluster = host then Platform_desc.Host_law
                         else
                           Platform_desc.Absolute
                             { cpi_a = f.fit_cpi_a; cpi_b = f.fit_cpi_b });
                    })
                  fits
                |> Array.of_list
              in
              match
                Platform_desc.create ~name ~clusters ~host:host_idx ~thermal
              with
              | p -> Ok p
              | exception Invalid_argument msg -> Error msg)))

let generate_sweep ?(seed = 99L) ?(noise = 0.01) desc =
  let g = Spectr_linalg.Prng.create seed in
  let jitter () =
    if noise = 0. then 1.
    else Float.max 0.5 (Spectr_linalg.Prng.gaussian g ~mu:1. ~sigma:noise)
  in
  let out = ref [] in
  for i = 0 to Platform_desc.num_clusters desc - 1 do
    let c = Platform_desc.cluster desc i in
    let opp = c.Platform_desc.opp in
    let cpi_a, cpi_b = Perf_model.coefficients_for Benchmarks.microbench desc i in
    Array.iteri
      (fun j freq ->
        let volt = opp.Opp.volts.(j) in
        for active = 1 to c.Platform_desc.cores do
          let power =
            Power_model.cluster_power c.Platform_desc.power ~table:opp
              ~freq_mhz:freq ~active_cores:active
              ~total_cores:c.Platform_desc.cores ~utilization:1.
          in
          let f_ghz = float_of_int freq /. 1000. in
          let kappa =
            Perf_model.contention_factor ~busy_cores:(float_of_int active)
          in
          let ips = f_ghz *. 1e9 /. (cpi_a +. (cpi_b *. kappa *. f_ghz)) in
          out :=
            {
              s_cluster = c.Platform_desc.cl_name;
              s_freq_mhz = freq;
              s_volt = volt;
              s_active = active;
              s_total = c.Platform_desc.cores;
              s_util = 1.;
              s_power_w = power *. jitter ();
              s_core_ips = ips *. jitter ();
            }
            :: !out
        done)
      opp.Opp.freqs_mhz
  done;
  List.rev !out
