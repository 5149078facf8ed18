(* The one allocation window of the tests: every allocation gate reads
   through [bytes f], which counts exactly what [f] allocates, in the
   minor heap and straight into the major heap alike, and nothing of its
   own.
   - Minor-heap words come from [Gc.minor_words], which includes what is
     still in the minor heap and reads unboxed, so the window allocates
     nothing inside itself.
   - Blocks too large for the minor heap go straight to the major heap:
     they are the major words minus the promoted words of
     [Gc.counters], where a promotion adds to both and cancels.  The
     runtime brings those two counters up to date only at a minor
     collection, so the minor heap is emptied at both ends of the
     window, and [Gc.counters] (which allocates) is read outside it.
   A [Gc.allocated_bytes] window reads the same plus 96 B of its own
   float boxes, and only when it is closed the same way: left open it
   misses whatever its code still has in the minor heap (100 three-word
   blocks read 912 B instead of 7 200 B).  A [Gc.minor_words] window
   alone misses every large block (a 1 000-float array reads 0 B). *)
let word_bytes = float_of_int (Sys.word_size / 8)

let direct_major_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

let bytes f =
  Gc.minor ();
  let d0 = direct_major_words () in
  let m0 = Gc.minor_words () in
  let r = f () in
  let m1 = Gc.minor_words () in
  Gc.minor ();
  (r, (m1 -. m0 +. direct_major_words () -. d0) *. word_bytes)
