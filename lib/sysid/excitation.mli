(** Excitation (test-input) signals for black-box system identification.

    The paper (§5) generates training data "by executing an in-house
    microbenchmark and varying control inputs in the format of a staircase
    test".  The design flow drives every input with an independent
    random staircase. *)

val random_staircase :
  Spectr_linalg.Prng.t ->
  lo:float ->
  hi:float ->
  hold:int ->
  length:int ->
  unit ->
  float array
(** Staircase whose level is redrawn uniformly from 6 evenly spaced
    levels spanning [lo, hi] every [hold] samples.  Independent draws
    per channel keep multi-input excitations uncorrelated — the property
    a fixed phase-shifted staircase lacks, and without which the
    regression cannot attribute effects to the right actuator. *)
