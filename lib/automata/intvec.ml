(* Growable int array — the scratch structure of the index-native
   algorithms (compose, synthesis), which accumulate transitions and
   state maps of unknown size without consing a list per element.  The
   synthesis engine reads its state-indexed vectors in place through
   [data]. *)

type t = { mutable a : int array; mutable len : int }

let create () = { a = Array.make 64 0; len = 0 }

let length v = v.len

let push v x =
  if v.len = Array.length v.a then begin
    let bigger = Array.make (2 * v.len) 0 in
    Array.blit v.a 0 bigger 0 v.len;
    v.a <- bigger
  end;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Intvec.get: index out of bounds";
  v.a.(i)

let pop v =
  if v.len = 0 then invalid_arg "Intvec.pop: empty";
  v.len <- v.len - 1;
  v.a.(v.len)

let to_array v = Array.sub v.a 0 v.len
let data v = v.a
