(* Growable int vector in fixed chunks — the scratch structure of the
   index-native algorithms (the state table, compose, synthesis), which
   accumulate keys, rows and transitions of unknown size without
   consing a list per element.  Chunks of [1 lsl cbits] ints are
   appended to and never copied, so no element-sized array grows by
   doubling.  Only the first chunk grows, by doubling from a size that
   keeps a tiny walk in the minor heap up to the full chunk. *)

let cbits = 15
let cmask = (1 lsl cbits) - 1

type t = {
  mutable chunks : int array array;
  mutable cap : int;
  mutable len : int;
}

let create () = { chunks = [| Array.make 64 0 |]; cap = 64; len = 0 }
let length v = v.len

let grow v =
  if v.cap <= cmask then begin
    let c = Array.make (min (cmask + 1) (2 * v.cap)) 0 in
    Array.blit v.chunks.(0) 0 c 0 v.len;
    v.chunks.(0) <- c;
    v.cap <- Array.length c
  end
  else begin
    v.chunks <- Array.append v.chunks [| Array.make (cmask + 1) 0 |];
    v.cap <- v.cap + cmask + 1
  end

let push v x =
  if v.len = v.cap then grow v;
  v.chunks.(v.len lsr cbits).(v.len land cmask) <- x;
  v.len <- v.len + 1

let get v i = v.chunks.(i lsr cbits).(i land cmask)

let pop v =
  if v.len = 0 then invalid_arg "Intvec.pop: empty";
  v.len <- v.len - 1;
  get v v.len
