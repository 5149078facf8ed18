open Spectr_linalg
open Spectr_platform

type item = { a_tasks : int; a_duration : int; a_kind : string }

let kinds =
  lazy
    (Array.of_list
       (List.map (fun w -> w.Workload.name) Benchmarks.all_qos))

let generate ~seed ~epoch ~rate =
  if rate < 0. then invalid_arg "Arrivals.generate: negative rate";
  let g = Prng.create (Prng.mix_seed seed epoch) in
  let base = int_of_float rate in
  let frac = rate -. float_of_int base in
  let count = base + (if Prng.float g < frac then 1 else 0) in
  let kinds = Lazy.force kinds in
  List.init count (fun _ ->
      {
        a_tasks = 1 + Prng.int g 3;
        a_duration = 50 + Prng.int g 200;
        a_kind = kinds.(Prng.int g (Array.length kinds));
      })
