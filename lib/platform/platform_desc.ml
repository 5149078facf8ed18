(* First-class platform descriptions: named clusters with core counts,
   OPP tables, CPI-law and power-model coefficients, and thermal
   parameters.  Everything downstream (Soc, Events, Spec, Supervisor,
   Scenario, fleet) derives its dimensions from one of these records
   instead of assuming the Exynos 5422's Big|Little dichotomy. *)

type cpi_law =
  | Host_law
  | Workload_ratio of float
  | Fixed_ratio of float
  | Absolute of { cpi_a : float; cpi_b : float }

type cluster = {
  cl_name : string;
  cores : int;
  opp : Opp.t;
  power : Power_model.params;
  cpi : cpi_law;
}

type thermal = {
  ambient_c : float;
  resistance_c_per_w : float;
  tau_s : float;
}

type t = {
  name : string;
  clusters : cluster array;
  host : int;
  thermal : thermal;
  core_offsets : int array; (* clusters + 1 entries; last = total cores *)
  digest : string; (* hex MD5 of [serialize], computed once in [create] *)
}

(* --- canonical serialization / digest --------------------------------- *)

let flt v = Printf.sprintf "%.17g" v

let cpi_law_to_string = function
  | Host_law -> "host"
  | Workload_ratio r -> "workload:" ^ flt r
  | Fixed_ratio r -> "ratio:" ^ flt r
  | Absolute { cpi_a; cpi_b } -> Printf.sprintf "abs:%s:%s" (flt cpi_a) (flt cpi_b)

let cpi_law_of_string s =
  match String.split_on_char ':' s with
  | [ "host" ] -> Some Host_law
  | [ "workload"; r ] ->
      Option.map (fun r -> Workload_ratio r) (float_of_string_opt r)
  | [ "ratio"; r ] -> Option.map (fun r -> Fixed_ratio r) (float_of_string_opt r)
  | [ "abs"; a; b ] -> (
      match (float_of_string_opt a, float_of_string_opt b) with
      | Some cpi_a, Some cpi_b -> Some (Absolute { cpi_a; cpi_b })
      | _ -> None)
  | _ -> None

(* Canonical serialization of a description's fields.  [create] digests
   it once; [to_csv_string] re-emits it for files and round trips. *)
let serialize ~name ~clusters ~host ~thermal =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# spectr platform csv v1\n";
  Buffer.add_string b (Printf.sprintf "platform,%s\n" name);
  Buffer.add_string b
    (Printf.sprintf "thermal,%s,%s,%s\n" (flt thermal.ambient_c)
       (flt thermal.resistance_c_per_w)
       (flt thermal.tau_s));
  Buffer.add_string b
    (Printf.sprintf "host,%s\n" clusters.(host).cl_name);
  Array.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "cluster,%s,%d,%s,%s,%s,%s,%s\n" c.cl_name c.cores
           (flt c.power.Power_model.cdyn_w_per_v2ghz)
           (flt c.power.Power_model.leak_w_per_core)
           (flt c.power.Power_model.gated_w_per_core)
           (flt c.power.Power_model.uncore_w)
           (cpi_law_to_string c.cpi)))
    clusters;
  Array.iter
    (fun c ->
      for i = 0 to Opp.num_points c.opp - 1 do
        let f = c.opp.Opp.freqs_mhz.(i) in
        Buffer.add_string b
          (Printf.sprintf "opp,%s,%d,%s\n" c.cl_name f
             (flt (Opp.voltage c.opp f)))
      done)
    clusters;
  Buffer.contents b

let valid_ident s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
       s

let validate_cluster c =
  if not (valid_ident c.cl_name) then
    invalid_arg
      (Printf.sprintf
         "Platform_desc: cluster name %S must be lowercase alphanumeric \
          starting with a letter"
         c.cl_name);
  if c.cores < 1 || c.cores > 64 then
    invalid_arg
      (Printf.sprintf "Platform_desc: cluster %s has %d cores (want 1..64)"
         c.cl_name c.cores);
  (match c.cpi with
  | Host_law -> ()
  | Workload_ratio r | Fixed_ratio r ->
      if not (Float.is_finite r && r > 0.) then
        invalid_arg
          (Printf.sprintf
             "Platform_desc: cluster %s CPI ratio %g not finite and positive"
             c.cl_name r)
  | Absolute { cpi_a; cpi_b } ->
      if
        not
          (Float.is_finite cpi_a && cpi_a > 0. && Float.is_finite cpi_b
         && cpi_b >= 0.)
      then
        invalid_arg
          (Printf.sprintf
             "Platform_desc: cluster %s absolute CPI law (%g, %g) invalid"
             c.cl_name cpi_a cpi_b))

let create ~name ~clusters ~host ~thermal =
  (* A private copy: the digest below must describe the record for its
     whole life, whatever the caller later does with its array. *)
  let clusters = Array.copy clusters in
  let n = Array.length clusters in
  if n = 0 then invalid_arg "Platform_desc.create: no clusters";
  if n > 16 then invalid_arg "Platform_desc.create: more than 16 clusters";
  if String.length name = 0 then invalid_arg "Platform_desc.create: empty name";
  if host < 0 || host >= n then
    invalid_arg
      (Printf.sprintf "Platform_desc.create: host index %d not in [0,%d)" host
         n);
  Array.iter validate_cluster clusters;
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun c ->
      if Hashtbl.mem seen c.cl_name then
        invalid_arg
          (Printf.sprintf "Platform_desc.create: duplicate cluster name %S"
             c.cl_name);
      Hashtbl.add seen c.cl_name ())
    clusters;
  if
    not
      (Float.is_finite thermal.ambient_c
      && Float.is_finite thermal.resistance_c_per_w
      && thermal.resistance_c_per_w > 0.
      && Float.is_finite thermal.tau_s
      && thermal.tau_s > 0.)
  then invalid_arg "Platform_desc.create: invalid thermal parameters";
  let core_offsets = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    core_offsets.(i + 1) <- core_offsets.(i) + clusters.(i).cores
  done;
  let digest =
    Digest.to_hex (Digest.string (serialize ~name ~clusters ~host ~thermal))
  in
  { name; clusters; host; thermal; core_offsets; digest }

let to_csv_string t =
  serialize ~name:t.name ~clusters:t.clusters ~host:t.host ~thermal:t.thermal

let digest t = t.digest
let name t = t.name
let clusters t = t.clusters
let num_clusters t = Array.length t.clusters
let host t = t.host
let thermal t = t.thermal
let cluster t i = t.clusters.(i)
let cluster_name t i = t.clusters.(i).cl_name
let total_cores t = t.core_offsets.(Array.length t.clusters)
let core_offset t i = t.core_offsets.(i)

let find_cluster t name =
  let n = Array.length t.clusters in
  let rec go i =
    if i >= n then None
    else if t.clusters.(i).cl_name = name then Some i
    else go (i + 1)
  in
  go 0

(* --- built-ins -------------------------------------------------------- *)

(* The ODROID-XU3 / Exynos 5422 of the paper's case study.  Every
   coefficient matches the constants that used to live in
   [Power_model]/[Soc]: the description-driven pipeline is byte-identical
   to the pre-description build on this platform (pinned by
   [make platform-smoke]). *)
let exynos5422 =
  create ~name:"exynos5422"
    ~clusters:
      [|
        {
          cl_name = "big";
          cores = 4;
          opp = Opp.big;
          power = Power_model.big_params;
          cpi = Host_law;
        };
        {
          cl_name = "little";
          cores = 4;
          opp = Opp.little;
          power = Power_model.little_params;
          cpi = Workload_ratio 1.0;
        };
      |]
    ~host:0
    ~thermal:{ ambient_c = 30.; resistance_c_per_w = 8.; tau_s = 3. }

(* A 3-cluster Pixel 8 Pro (Tensor G3): 4x Cortex-A510 (LITTLE),
   4x Cortex-A715 (BIG, hosting the QoS app's four threads) and a
   single Cortex-X3 (PRIME) boost core.  OPP ramps and power
   coefficients are plausible approximations in the style of the
   ARM-based-Power measurement topologies, not silicon ground truth —
   the calibration fitter (Spectr_sysid.Calibrate) exists to replace
   them with measured sweeps. *)
let pixel8pro =
  create ~name:"pixel8pro"
    ~clusters:
      [|
        {
          cl_name = "little";
          cores = 4;
          opp =
            Opp.ramp ~name:"a510" ~lo_mhz:300 ~hi_mhz:1700 ~lo_v:0.55
              ~hi_v:0.95;
          power =
            Power_model.params ~cdyn_w_per_v2ghz:0.09 ~leak_w_per_core:0.012
              ~gated_w_per_core:0.004 ~uncore_w:0.05;
          cpi = Fixed_ratio 0.5;
        };
        {
          cl_name = "big";
          cores = 4;
          opp =
            Opp.ramp ~name:"a715" ~lo_mhz:400 ~hi_mhz:2400 ~lo_v:0.60
              ~hi_v:1.05;
          power =
            Power_model.params ~cdyn_w_per_v2ghz:0.28 ~leak_w_per_core:0.045
              ~gated_w_per_core:0.009 ~uncore_w:0.12;
          cpi = Host_law;
        };
        {
          cl_name = "prime";
          cores = 1;
          opp =
            Opp.ramp ~name:"x3" ~lo_mhz:500 ~hi_mhz:2900 ~lo_v:0.65 ~hi_v:1.10;
          power =
            Power_model.params ~cdyn_w_per_v2ghz:0.46 ~leak_w_per_core:0.08
              ~gated_w_per_core:0.015 ~uncore_w:0.10;
          cpi = Fixed_ratio 1.35;
        };
      |]
    ~host:1
    ~thermal:{ ambient_c = 30.; resistance_c_per_w = 6.5; tau_s = 2.5 }

(* Synthetic k-cluster platform for synthesis-scale and fleet
   experiments: cluster 0 hosts the QoS app, later clusters get
   progressively wider OPP ranges and higher per-cluster power. *)
let k_cluster ?(cores_per_cluster = 4) k =
  if k < 1 || k > 16 then
    invalid_arg (Printf.sprintf "Platform_desc.k_cluster: k = %d not in 1..16" k);
  let clusters =
    Array.init k (fun i ->
        let hi_mhz = 1400 + (200 * i) in
        {
          cl_name = Printf.sprintf "c%d" i;
          cores = cores_per_cluster;
          opp =
            Opp.ramp
              ~name:(Printf.sprintf "c%d-ramp" i)
              ~lo_mhz:200 ~hi_mhz ~lo_v:0.90
              ~hi_v:(1.10 +. (0.05 *. float_of_int i));
          power =
            Power_model.params
              ~cdyn_w_per_v2ghz:(0.07 +. (0.05 *. float_of_int i))
              ~leak_w_per_core:(0.015 +. (0.008 *. float_of_int i))
              ~gated_w_per_core:0.005 ~uncore_w:0.05;
          cpi = (if i = 0 then Host_law else Fixed_ratio (0.6 +. (0.15 *. float_of_int i)));
        })
  in
  create
    ~name:(Printf.sprintf "k%d" k)
    ~clusters ~host:0
    ~thermal:{ ambient_c = 30.; resistance_c_per_w = 8.; tau_s = 3. }

let builtins () = [ exynos5422; pixel8pro; k_cluster 4 ]


(* --- CSV parsing ------------------------------------------------------ *)

type parse_error = { line : int; msg : string }

let pp_parse_error fmt e =
  Format.fprintf fmt "line %d: %s" e.line e.msg

type builder = {
  mutable b_name : string option;
  mutable b_thermal : thermal option;
  mutable b_host : string option;
  (* cluster rows in declaration order; OPP points accumulate per name *)
  mutable b_clusters :
    (string * int * Power_model.params * cpi_law) list; (* reversed *)
  opps : (string, (int * float) list ref) Hashtbl.t; (* reversed points *)
}

let err line fmt = Printf.ksprintf (fun msg -> Error { line; msg }) fmt

let parse_int ~line ~what s =
  match int_of_string_opt (String.trim s) with
  | Some v -> Ok v
  | None -> err line "%s: %S is not an integer" what s

let parse_float ~line ~what s =
  match float_of_string_opt (String.trim s) with
  | Some v when Float.is_finite v -> Ok v
  | Some _ -> err line "%s: %S is not finite" what s
  | None -> err line "%s: %S is not a number" what s

let ( let* ) = Result.bind

let parse_line b ~line s =
  let fields = String.split_on_char ',' s |> List.map String.trim in
  match fields with
  | [ "platform"; n ] ->
      if b.b_name <> None then err line "duplicate platform row"
      else if String.length n = 0 then err line "platform row: empty name"
      else begin
        b.b_name <- Some n;
        Ok ()
      end
  | "platform" :: _ ->
      err line "platform row wants exactly one field: platform,<name>"
  | [ "thermal"; amb; res; tau ] ->
      if b.b_thermal <> None then err line "duplicate thermal row"
      else
        let* ambient_c = parse_float ~line ~what:"thermal ambient" amb in
        let* resistance_c_per_w =
          parse_float ~line ~what:"thermal resistance" res
        in
        let* tau_s = parse_float ~line ~what:"thermal tau" tau in
        if resistance_c_per_w <= 0. || tau_s <= 0. then
          err line "thermal resistance and tau must be positive"
        else begin
          b.b_thermal <- Some { ambient_c; resistance_c_per_w; tau_s };
          Ok ()
        end
  | "thermal" :: _ ->
      err line "thermal row wants thermal,<ambient_c>,<c_per_w>,<tau_s>"
  | [ "host"; n ] ->
      if b.b_host <> None then err line "duplicate host row"
      else begin
        b.b_host <- Some n;
        Ok ()
      end
  | "host" :: _ -> err line "host row wants exactly one field: host,<cluster>"
  | [ "cluster"; n; cores; cdyn; leak; gated; uncore; law ] ->
      if not (valid_ident n) then
        err line
          "cluster name %S must be lowercase alphanumeric starting with a \
           letter"
          n
      else if List.exists (fun (m, _, _, _) -> m = n) b.b_clusters then
        err line "duplicate cluster %S" n
      else
        let* cores = parse_int ~line ~what:"cluster cores" cores in
        let* cdyn_w_per_v2ghz = parse_float ~line ~what:"cdyn" cdyn in
        let* leak_w_per_core = parse_float ~line ~what:"leak" leak in
        let* gated_w_per_core = parse_float ~line ~what:"gated" gated in
        let* uncore_w = parse_float ~line ~what:"uncore" uncore in
        if cores < 1 || cores > 64 then
          err line "cluster %s: %d cores not in 1..64" n cores
        else if
          cdyn_w_per_v2ghz < 0. || leak_w_per_core < 0.
          || gated_w_per_core < 0. || uncore_w < 0.
        then err line "cluster %s: negative power coefficient" n
        else begin
          match cpi_law_of_string law with
          | None ->
              err line
                "cluster %s: CPI law %S is not host | workload:<r> | \
                 ratio:<r> | abs:<a>:<b>"
                n law
          | Some cpi_law ->
              b.b_clusters <-
                ( n,
                  cores,
                  Power_model.params ~cdyn_w_per_v2ghz ~leak_w_per_core
                    ~gated_w_per_core ~uncore_w,
                  cpi_law )
                :: b.b_clusters;
              Ok ()
        end
  | "cluster" :: _ ->
      err line
        "cluster row wants \
         cluster,<name>,<cores>,<cdyn>,<leak>,<gated>,<uncore>,<cpi-law>"
  | [ "opp"; n; f; v ] ->
      let* f = parse_int ~line ~what:"opp frequency" f in
      let* v = parse_float ~line ~what:"opp voltage" v in
      if f <= 0 then err line "opp frequency %d MHz must be positive" f
      else if v <= 0. then err line "opp voltage %g must be positive" v
      else begin
        let pts =
          match Hashtbl.find_opt b.opps n with
          | Some r -> r
          | None ->
              let r = ref [] in
              Hashtbl.add b.opps n r;
              r
        in
        pts := (f, v) :: !pts;
        Ok ()
      end
  | "opp" :: _ -> err line "opp row wants opp,<cluster>,<freq_mhz>,<volt>"
  | [ "" ] -> Ok () (* blank line *)
  | kind :: _ ->
      err line
        "unknown row kind %S (want platform | thermal | host | cluster | opp)"
        kind
  | [] -> Ok ()

let of_csv_string s =
  let b =
    {
      b_name = None;
      b_thermal = None;
      b_host = None;
      b_clusters = [];
      opps = Hashtbl.create 8;
    }
  in
  let lines = String.split_on_char '\n' s in
  let rec feed line = function
    | [] -> Ok ()
    | l :: rest ->
        let l = String.trim l in
        if String.length l = 0 || l.[0] = '#' then feed (line + 1) rest
        else
          let* () = parse_line b ~line l in
          feed (line + 1) rest
  in
  let* () = feed 1 lines in
  let* name =
    match b.b_name with
    | Some n -> Ok n
    | None -> err 0 "missing platform row"
  in
  let* thermal =
    match b.b_thermal with
    | Some t -> Ok t
    | None -> err 0 "missing thermal row"
  in
  let* host_name =
    match b.b_host with Some h -> Ok h | None -> err 0 "missing host row"
  in
  let cluster_rows = List.rev b.b_clusters in
  let* () =
    if cluster_rows = [] then err 0 "no cluster rows" else Ok ()
  in
  let* clusters =
    let rec build acc = function
      | [] -> Ok (List.rev acc)
      | (n, cores, power, cpi) :: rest -> (
          match Hashtbl.find_opt b.opps n with
          | None | Some { contents = [] } ->
              err 0 "cluster %s has no opp rows" n
          | Some pts ->
              let points =
                List.sort (fun (f1, _) (f2, _) -> compare f1 f2) (List.rev !pts)
              in
              let rec dup = function
                | (f1, _) :: ((f2, _) :: _ as rest) ->
                    if f1 = f2 then Some f1 else dup rest
                | _ -> None
              in
              (match dup points with
              | Some f -> err 0 "cluster %s: duplicate opp at %d MHz" n f
              | None ->
                  let opp =
                    Opp.create ~name:(n ^ "-opp") ~points
                  in
                  build ({ cl_name = n; cores; opp; power; cpi } :: acc) rest))
    in
    build [] cluster_rows
  in
  let clusters = Array.of_list clusters in
  (* Orphan OPP rows are a schema violation, not noise to ignore. *)
  let* () =
    Hashtbl.fold
      (fun n _ acc ->
        let* () = acc in
        if Array.exists (fun c -> c.cl_name = n) clusters then Ok ()
        else err 0 "opp rows reference unknown cluster %S" n)
      b.opps (Ok ())
  in
  let* host =
    match
      Array.to_list clusters
      |> List.mapi (fun i c -> (i, c))
      |> List.find_opt (fun (_, c) -> c.cl_name = host_name)
    with
    | Some (i, _) -> Ok i
    | None -> err 0 "host row names unknown cluster %S" host_name
  in
  match create ~name ~clusters ~host ~thermal with
  | t -> Ok t
  | exception Invalid_argument msg -> err 0 "%s" msg

let of_csv_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> of_csv_string s
  | exception Sys_error msg -> Error { line = 0; msg }

(* --- degradation ------------------------------------------------------ *)

type degradation =
  | Remove_cluster of int
  | Pin_opp of { cluster : int; freq_mhz : int }

(* A degraded description is a first-class description: its digest keys
   Design_flow/Synth_cache memo entries and checkpoint variant tags, so
   a reconfigured manager never collides with the healthy one.  The name
   suffix makes traces and logs self-describing; platform names carry no
   identifier restriction, so "exynos5422!no-little" is valid. *)
let degrade t = function
  | Remove_cluster i ->
      let n = Array.length t.clusters in
      if i < 0 || i >= n then
        invalid_arg
          (Printf.sprintf "Platform_desc.degrade: cluster %d not in [0,%d)" i n);
      if i = t.host then
        invalid_arg
          (Printf.sprintf
             "Platform_desc.degrade: cluster %d hosts the QoS application — \
              a dead host is unrecoverable, not degradable"
             i);
      if n = 1 then
        invalid_arg "Platform_desc.degrade: cannot remove the last cluster";
      let removed = t.clusters.(i).cl_name in
      let clusters =
        Array.of_list
          (List.filteri
             (fun j _ -> j <> i)
             (Array.to_list t.clusters))
      in
      let host = if t.host > i then t.host - 1 else t.host in
      create
        ~name:(t.name ^ "!no-" ^ removed)
        ~clusters ~host ~thermal:t.thermal
  | Pin_opp { cluster; freq_mhz } ->
      let n = Array.length t.clusters in
      if cluster < 0 || cluster >= n then
        invalid_arg
          (Printf.sprintf "Platform_desc.degrade: cluster %d not in [0,%d)"
             cluster n);
      let c = t.clusters.(cluster) in
      let f = Opp.nearest c.opp (float_of_int freq_mhz) in
      let pinned =
        Opp.create
          ~name:(c.opp.Opp.name ^ "-pinned")
          ~points:[ (f, Opp.voltage c.opp f) ]
      in
      let clusters =
        Array.mapi
          (fun j cj -> if j = cluster then { cj with opp = pinned } else cj)
          t.clusters
      in
      create
        ~name:(Printf.sprintf "%s!%s@%d" t.name c.cl_name f)
        ~clusters ~host:t.host ~thermal:t.thermal

(* Peak chip power of a description: every cluster at its top OPP, all
   cores active, full utilization.  The fleet layer uses the ratio of a
   degraded description's peak to the healthy one's to derive remaining
   capacity for [Node.report]. *)
let max_power_estimate t =
  Array.fold_left
    (fun acc c ->
      acc
      +. Power_model.cluster_power c.power ~table:c.opp
           ~freq_mhz:(Opp.max_freq c.opp) ~active_cores:c.cores
           ~total_cores:c.cores ~utilization:1.0)
    0. t.clusters

(* --- description ------------------------------------------------------ *)

let describe t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%s: %d cluster%s, %d cores, digest %s\n" t.name
       (num_clusters t)
       (if num_clusters t = 1 then "" else "s")
       (total_cores t) (String.sub (digest t) 0 12));
  Array.iteri
    (fun i c ->
      Buffer.add_string b
        (Printf.sprintf "  %-8s %d cores, %4d-%4d MHz (%d OPPs)%s\n" c.cl_name
           c.cores (Opp.min_freq c.opp) (Opp.max_freq c.opp)
           (Opp.num_points c.opp)
           (if i = t.host then "  [qos host]" else "")))
    t.clusters;
  Buffer.contents b
