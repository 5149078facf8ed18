open Spectr_automata

type entry = (Automaton.t * Synthesis.stats, Synthesis.error) result

let cache : (string, entry) Single_flight.t = Single_flight.create ()

let c_hits = Spectr_obs.Counters.counter "synth_cache.hits"
let c_misses = Spectr_obs.Counters.counter "synth_cache.misses"
let h_synthesis = Spectr_obs.Histogram.histogram "synth_cache.synthesis_ns"

(* Below this many product-grid cells (plant states × spec states) one
   job wins outright: sharding, domain spawns and barrier rounds cost
   more than the whole synthesis.  Above it, run the engine with the
   jobs the environment grants.  There is one engine — [Synthesis.supcon]
   is [supcon_par ~jobs:1] — and its result is byte-identical for any
   job count, so the routing is invisible to callers, including this
   cache's digest keys. *)
let par_threshold = 32768

let jobs_for ~plant ~spec =
  if Automaton.num_states plant * Automaton.num_states spec < par_threshold
  then 1
  else Pool.default_jobs ()

let supcon ~plant ~spec =
  let key =
    Automaton.structural_digest plant ^ ":" ^ Automaton.structural_digest spec
  in
  let computed = ref false in
  let result =
    Single_flight.find_or_compute cache ~key ~compute:(fun () ->
        computed := true;
        Spectr_obs.time h_synthesis (fun () ->
            Synthesis.supcon_par ~jobs:(jobs_for ~plant ~spec) ~plant ~spec ()))
  in
  if !computed then Spectr_obs.Counters.incr c_misses
  else Spectr_obs.Counters.incr c_hits;
  result

let stats () = Single_flight.stats cache
let clear () = Single_flight.clear cache
