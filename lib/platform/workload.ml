type phase = {
  duration_s : float;
  parallel_fraction : float;
  demand_scale : float;
}

type t = {
  name : string;
  parallel_fraction : float;
  freq_scaling : float;
  base_ipc_big : float;
  little_ipc_ratio : float;
  instructions_per_heartbeat : float;
  complexity_wobble : float;
  phases : phase list;
}

let create ?(complexity_wobble = 0.) ?(phases = [])
    ~name ~parallel_fraction ~freq_scaling ~base_ipc_big
    ~instructions_per_heartbeat () =
  if parallel_fraction < 0. || parallel_fraction > 1. then
    invalid_arg "Workload.create: parallel_fraction not in [0,1]";
  if freq_scaling <= 1. then
    invalid_arg "Workload.create: freq_scaling must exceed 1";
  if base_ipc_big <= 0. then invalid_arg "Workload.create: base_ipc_big <= 0";
  if instructions_per_heartbeat <= 0. then
    invalid_arg "Workload.create: instructions_per_heartbeat <= 0";
  if complexity_wobble < 0. then
    invalid_arg "Workload.create: complexity_wobble < 0";
  List.iter
    (fun ph ->
      if ph.duration_s <= 0. then invalid_arg "Workload.create: phase duration";
      if ph.parallel_fraction < 0. || ph.parallel_fraction > 1. then
        invalid_arg "Workload.create: phase parallel_fraction";
      if ph.demand_scale <= 0. then
        invalid_arg "Workload.create: phase demand_scale")
    phases;
  {
    name;
    parallel_fraction;
    freq_scaling;
    base_ipc_big;
    little_ipc_ratio = 0.45;
    instructions_per_heartbeat;
    complexity_wobble;
    phases;
  }

let amdahl_speedup ~parallel_fraction ~cores =
  if cores <= 0. then invalid_arg "Workload.amdahl_speedup: cores <= 0";
  1. /. (1. -. parallel_fraction +. (parallel_fraction /. cores))
