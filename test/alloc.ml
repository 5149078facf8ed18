(* Allocation windows that count every byte.  Under OCaml 5.1,
   [Gc.allocated_bytes] counts minor-heap allocation only up to the last
   minor collection, so a window left open misses whatever its code
   still has in the minor heap (100 three-word blocks read 912 B instead
   of 7 200 B).  [bytes f] empties the minor heap at both ends of the
   window, so it counts all of [f]'s allocation, plus 96 B of its own
   (the counters' float boxes). *)
let bytes f =
  Gc.minor ();
  let b0 = Gc.allocated_bytes () in
  let r = f () in
  Gc.minor ();
  (r, Gc.allocated_bytes () -. b0)
