(* Column-major storage in growable contiguous arrays (doubling, per
   column, for floats).  The predecessor kept a
   newest-first row list and rebuilt a full n-element array on every
   [column] call, which made [Metrics.per_phase] O(phases x columns x n);
   here [column_slice] copies just the slice and [last] is O(1).  Column
   lookup by name goes through a hash table built in [create] — the old
   linear string scan sat on the guard/supervisor tick path via [last] —
   and hot callers can resolve the index once ([column_index]) and use
   the [_ix] accessors.  The CSV output is byte-identical to the
   row-list implementation (pinned by test). *)

type t = {
  names : string array;
  by_name : (string, int) Hashtbl.t; (* name -> column index *)
  mutable cols : float array array; (* one buffer per column, length cap *)
  mutable cap : int;
  mutable n : int;
}

let initial_cap = 256

let create ?cap ~columns () =
  if columns = [] then invalid_arg "Trace.create: no columns";
  let names = Array.of_list columns in
  let sorted = List.sort_uniq compare columns in
  if List.length sorted <> Array.length names then
    invalid_arg "Trace.create: duplicate column";
  let by_name = Hashtbl.create (Array.length names) in
  Array.iteri (fun i name -> Hashtbl.add by_name name i) names;
  let initial_cap =
    match cap with None -> initial_cap | Some c -> max 1 c
  in
  {
    names;
    by_name;
    cols = Array.map (fun _ -> Array.make initial_cap 0.) names;
    cap = initial_cap;
    n = 0;
  }

let add t row =
  if Array.length row <> Array.length t.names then
    invalid_arg "Trace.add: row width mismatch";
  if t.n = t.cap then begin
    let cap = 2 * t.cap in
    t.cols <-
      Array.map
        (fun col ->
          let bigger = Array.make cap 0. in
          Array.blit col 0 bigger 0 t.n;
          bigger)
        t.cols;
    t.cap <- cap
  end;
  (* Plain loop: Array.iteri's closure would put an allocation on the
     per-tick path. *)
  let n = t.n in
  for i = 0 to Array.length row - 1 do
    t.cols.(i).(n) <- row.(i)
  done;
  t.n <- n + 1

let length t = t.n
let columns t = Array.to_list t.names
let width t = Array.length t.names

let index t name =
  match Hashtbl.find_opt t.by_name name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Trace: unknown column %S" name)

let column_index = index

let check_column_index t i =
  if i < 0 || i >= Array.length t.names then
    invalid_arg (Printf.sprintf "Trace: column index %d out of range" i)

let column_ix t i =
  check_column_index t i;
  Array.sub t.cols.(i) 0 t.n

let last_ix t i =
  check_column_index t i;
  if t.n = 0 then invalid_arg "Trace.last: empty trace";
  t.cols.(i).(t.n - 1)

let column t name = Array.sub t.cols.(index t name) 0 t.n

let column_slice t name ~from ~upto =
  if from < 0 || upto > t.n || from >= upto then
    invalid_arg "Trace.column_slice: bad range";
  Array.sub t.cols.(index t name) from (upto - from)

let last t name =
  if t.n = 0 then invalid_arg "Trace.last: empty trace";
  t.cols.(index t name).(t.n - 1)

(* CSV rendering.  Every value is written as [Printf.sprintf "%.6g"]
   writes it, byte for byte: the chaos digests, replay artifacts and
   CLI CSVs all hash this text.  [Printf] rebuilds its format string and
   calls [snprintf] for every value, which cost two thirds of a chaos
   cell, so the common cases are written here by hand and the rest go to
   the same primitive [Printf]'s [%g] ends in.  One row renderer writes
   into a byte buffer at a position; [to_csv] and [csv_digest] both
   drive it, so the text and its digest cannot diverge. *)

module Md5 = Spectr_linalg.Md5

external format_float : string -> float -> string = "caml_format_float"

(* The longest "%.6g" rendering is 13 bytes ("-1.23457e+308"), plus a
   separator. *)
let value_bound = 14
let row_bound t = value_bound * Array.length t.names

(* Decimal digits of [m] >= 0 with the point [d] digits from the right
   (none when [d] = 0) and at least one digit before it, written at
   [pos]; returns the position after them.  No closure, no
   [string_of_int] (another [snprintf]). *)
let put_fixed b pos m d =
  let pow = ref 1 and j = ref 0 in
  while !pow * 10 <= m || !j < d do
    pow := !pow * 10;
    incr j
  done;
  let p = ref pos in
  while !pow > 0 do
    if !j = d - 1 then begin
      Bytes.unsafe_set b !p '.';
      incr p
    end;
    Bytes.unsafe_set b !p (Char.unsafe_chr (48 + (m / !pow mod 10)));
    incr p;
    pow := !pow / 10;
    decr j
  done;
  !p

let put_char b pos c =
  Bytes.unsafe_set b pos c;
  pos + 1

let pow10 = [| 1.; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]

let put_fallback b pos x =
  let s = format_float "%.6g" x in
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* Writes [col.(r)] at [pos]: the value is read here, not passed, so it
   stays unboxed on every path but the fallback. *)
let put_g b pos col r =
  let x = Array.unsafe_get col r in
  let a = Float.abs x in
  (* False for nan and the infinities. *)
  if a < 1e6 then begin
    let i = Float.to_int x in
    if Float.of_int i = x then
      (* Integral: at most six digits, which is what %.6g prints. *)
      if i = 0 && Float.sign_bit x then put_fallback b pos x
      else put_fixed b (if i < 0 then put_char b pos '-' else pos) (abs i) 0
    else if a >= 1e-4 then begin
      (* Six significant digits: d = 5 - e places after the point for
         the decade 10^e <= |x| < 10^(e+1).  The doubles nearest 1e-1
         .. 1e-4 lie above the true powers, so [>=] against them decides
         the decade exactly. *)
      let d =
        if a >= 1e5 then 0
        else if a >= 1e4 then 1
        else if a >= 1e3 then 2
        else if a >= 1e2 then 3
        else if a >= 1e1 then 4
        else if a >= 1. then 5
        else if a >= 1e-1 then 6
        else if a >= 1e-2 then 7
        else if a >= 1e-3 then 8
        else 9
      in
      (* Round |x| * 10^d to m.  The power of ten is exact, the
         product's error is below 2^-33. *)
      let p = a *. Array.unsafe_get pow10 d in
      let whole = Float.to_int p in
      let frac = p -. Float.of_int whole in
      let m = if frac > 0.5 then whole + 1 else whole in
      (* The C library rounds an exact tie half to even, and a carry to
         10^6 changes the exponent: leave both to it. *)
      if Float.abs (frac -. 0.5) < 1e-9 || m >= 1_000_000 then
        put_fallback b pos x
      else begin
        (* %.6g's %f style: strip trailing zeros and a bare point. *)
        let m = ref m and d = ref d in
        while !d > 0 && !m mod 10 = 0 do
          m := !m / 10;
          decr d
        done;
        put_fixed b (if x < 0. then put_char b pos '-' else pos) !m !d
      end
    end
    else put_fallback b pos x
  end
  else put_fallback b pos x

(* Row [r] and its newline at [pos], which has [row_bound t] bytes of
   room; returns the position after it. *)
let put_row t r b pos =
  let pos = ref pos in
  for c = 0 to Array.length t.names - 1 do
    if c > 0 then pos := put_char b !pos ',';
    pos := put_g b !pos t.cols.(c) r
  done;
  put_char b !pos '\n'

let header t = String.concat "," (Array.to_list t.names) ^ "\n"

let to_csv t =
  let k = Array.length t.names in
  let buf = Buffer.create (1024 + (t.n * k * 8)) in
  Buffer.add_string buf (header t);
  let row = Bytes.create (row_bound t) in
  for r = 0 to t.n - 1 do
    Buffer.add_subbytes buf row 0 (put_row t r row 0)
  done;
  Buffer.contents buf

(* The rows are rendered straight into the digest's buffer: under 2 KB
   unless one row needs more, so it is a minor-heap block. *)
let csv_digest t =
  let h = Md5.create (max 2000 (row_bound t)) in
  Md5.add_string h (header t);
  let bound = row_bound t in
  for r = 0 to t.n - 1 do
    Md5.room h bound;
    h.Md5.pos <- put_row t r h.Md5.buf h.Md5.pos
  done;
  Md5.to_hex h
