open Spectr_automata

type entry = (Automaton.t * Synthesis.stats, Synthesis.error) result

let cache : (string, entry) Single_flight.t = Single_flight.create ()

let c_hits = Spectr_obs.Counters.counter "synth_cache.hits"
let c_misses = Spectr_obs.Counters.counter "synth_cache.misses"
let h_synthesis = Spectr_obs.Histogram.histogram "synth_cache.synthesis_ns"

let supcon ~plant ~spec =
  let key =
    Automaton.structural_digest plant ^ ":" ^ Automaton.structural_digest spec
  in
  let computed = ref false in
  let result =
    Single_flight.find_or_compute cache ~key ~compute:(fun () ->
        computed := true;
        Spectr_obs.time h_synthesis (fun () -> Synthesis.supcon ~plant ~spec))
  in
  if !computed then Spectr_obs.Counters.incr c_misses
  else Spectr_obs.Counters.incr c_hits;
  result

let stats () = Single_flight.stats cache
let clear () = Single_flight.clear cache
