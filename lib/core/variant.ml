open Spectr_platform

type t = Spectr_r | Spectr_g | Spectr | Mm_pow | Mm_perf | Siso | Fs

let all = [ Spectr_r; Spectr_g; Spectr; Mm_pow; Mm_perf; Siso; Fs ]

let name = function
  | Spectr_r -> "SPECTR+R"
  | Spectr_g -> "SPECTR+G"
  | Spectr -> "SPECTR"
  | Mm_pow -> "MM-Pow"
  | Mm_perf -> "MM-Perf"
  | Siso -> "SISO"
  | Fs -> "FS"

let of_string s =
  match String.lowercase_ascii s with
  | "spectr+r" | "spectr-r" | "spectr_r" -> Spectr_r
  | "spectr+g" | "spectr-g" | "spectr_g" -> Spectr_g
  | "spectr" -> Spectr
  | "mm-pow" | "mm_pow" | "mmpow" -> Mm_pow
  | "mm-perf" | "mm_perf" | "mmperf" -> Mm_perf
  | "siso" -> Siso
  | "fs" -> Fs
  | _ -> invalid_arg (Printf.sprintf "Variant.of_string: %S" s)

let make platform v =
  (* The hand-tuned baselines have no N-cluster generalization: refuse
     rather than silently mis-drive an unrelated platform. *)
  if (v = Siso || v = Fs) && not (Design_flow.is_reference_platform platform)
  then
    invalid_arg
      (Printf.sprintf
         "manager %s is hand-tuned for exynos5422 and cannot run on %s"
         (name v) (Platform_desc.name platform));
  match v with
  | Spectr_r ->
      let mgr, h = Spectr_manager.make_reconfigurable ~platform () in
      (mgr, None, Some (Spectr_manager.Reconfig.guard h), Some h)
  | Spectr_g ->
      let guards =
        Guarded.create ~clusters:(Platform_desc.num_clusters platform) ()
      in
      let mgr, sup = Spectr_manager.make ~guards ~platform () in
      (mgr, Some sup, Some guards, None)
  | Spectr ->
      let mgr, sup = Spectr_manager.make ~platform () in
      (mgr, Some sup, None, None)
  | Mm_pow -> (Mm.make_pow ~platform (), None, None, None)
  | Mm_perf -> (Mm.make_perf ~platform (), None, None, None)
  | Siso -> (Siso.make (), None, None, None)
  | Fs -> (Fs.make (), None, None, None)
