(* Counter [i] occupies slots [2i] (streak) and [2i + 1] (stage). *)
type t = int array

let quiet = 0
let flagged_stage = 1
let latched_stage = 2

type change = Unchanged | Raised | Cleared | Latched

let create n =
  if n < 0 then invalid_arg "Persistence.create: n < 0";
  Array.make (2 * n) 0

let[@inline] streak b i = b.(2 * i)
let[@inline] reset b i = b.(2 * i) <- 0
let[@inline] note b i hit = b.(2 * i) <- (if hit then b.(2 * i) + 1 else 0)
let flagged b i = b.((2 * i) + 1) <> quiet

let transition b i ~onset ~latch =
  let s = (2 * i) + 1 in
  let stage = b.(s) and streak = b.(2 * i) in
  if stage = latched_stage then Unchanged
  else if streak >= latch then begin
    b.(s) <- latched_stage;
    Latched
  end
  else if streak >= onset then
    if stage = quiet then begin
      b.(s) <- flagged_stage;
      Raised
    end
    else Unchanged
  else if streak = 0 && stage = flagged_stage then begin
    b.(s) <- quiet;
    Cleared
  end
  else Unchanged

let copy = Array.copy

let blit ~src b =
  if Array.length src <> Array.length b then
    invalid_arg "Persistence.blit: bank lengths differ";
  Array.blit src 0 b 0 (Array.length b)
