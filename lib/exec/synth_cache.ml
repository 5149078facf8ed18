open Spectr_automata

type entry = (Automaton.t * Synthesis.stats, Synthesis.error) result

let cache : (string, entry) Single_flight.t = Single_flight.create ()

let c_hits = Spectr_obs.Counters.counter "synth_cache.hits"
let c_misses = Spectr_obs.Counters.counter "synth_cache.misses"
let c_verified = Spectr_obs.Counters.counter "synth_cache.verifications"
let h_synthesis = Spectr_obs.Histogram.histogram "synth_cache.synthesis_ns"

(* Both property checks, once per synthesized supervisor: an entry is
   stored only after they pass, so every hit is already verified. *)
let verify ~plant sup =
  Spectr_obs.Counters.incr c_verified;
  (match Verify.nonblocking sup with
  | Ok () -> ()
  | Error { Verify.state } -> failwith ("Synth_cache.supcon: blocking at " ^ state));
  match Verify.controllable ~plant ~supervisor:sup with
  | Ok () -> ()
  | Error w ->
      failwith ("Synth_cache.supcon: uncontrollable at " ^ w.Verify.plant_state)

let supcon ~plant ~spec =
  let key =
    Automaton.structural_digest plant ^ ":" ^ Automaton.structural_digest spec
  in
  let computed = ref false in
  let result =
    Single_flight.find_or_compute cache ~key ~compute:(fun () ->
        computed := true;
        let result =
          Spectr_obs.time h_synthesis (fun () -> Synthesis.supcon ~plant ~spec)
        in
        Result.iter (fun (sup, _) -> verify ~plant sup) result;
        result)
  in
  if !computed then Spectr_obs.Counters.incr c_misses
  else Spectr_obs.Counters.incr c_hits;
  result

let stats () = Single_flight.stats cache
let clear () = Single_flight.clear cache
