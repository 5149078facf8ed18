(* Samples live in a circular buffer of parallel (time, count) float
   arrays.  The predecessor kept a newest-first cons list, which
   allocated a pair and a cons cell on every beat and rebuilt the list
   on every [rate] call; the ring makes both operations allocation-free
   in steady state (the buffer only grows when more samples than ever
   before are simultaneously inside the window).  [rate] reproduces the
   list version bit-for-bit: expired samples are dropped from the old
   end, and the sum is accumulated newest-to-oldest in the same float
   addition order as the fold over the newest-first list.

   The two floats every beat rewrites sit in a record of floats only,
   which OCaml stores flat: a mutable float field of the mixed [t] would
   hold the caller's box (or a fresh one for the running total) until
   the next minor collection promoted it into the major heap. *)

type clock = { mutable total : float; mutable last_time : float }

type t = {
  window : float;
  mutable reference : float; (* set rarely, by the user *)
  clock : clock;
  mutable times : float array; (* circular, parallel to counts *)
  mutable counts : float array;
  mutable head : int; (* index of the oldest live sample *)
  mutable len : int; (* live samples *)
}

(* The scenario's 0.25 s window at the 0.05 s period holds six samples
   when a beat lands (seven if rounding keeps the one on the window's
   edge); the ring doubles whenever it fills, so the capacity changes no
   rate, only the memory a monitor holds. *)
let initial_cap = 8

let create ?(window = 0.5) ~reference () =
  if window <= 0. then invalid_arg "Heartbeats.create: window <= 0";
  if reference <= 0. then invalid_arg "Heartbeats.create: reference <= 0";
  {
    window;
    reference;
    clock = { total = 0.; last_time = neg_infinity };
    times = Array.make initial_cap 0.;
    counts = Array.make initial_cap 0.;
    head = 0;
    len = 0;
  }

let grow t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0. in
  let counts = Array.make (2 * cap) 0. in
  for k = 0 to t.len - 1 do
    let i = (t.head + k) mod cap in
    times.(k) <- t.times.(i);
    counts.(k) <- t.counts.(i)
  done;
  t.times <- times;
  t.counts <- counts;
  t.head <- 0

let beat t ~now ~count =
  let c = t.clock in
  if now < c.last_time then invalid_arg "Heartbeats.beat: time went backwards";
  c.last_time <- now;
  c.total <- c.total +. count;
  if t.len = Array.length t.times then grow t;
  let i = (t.head + t.len) mod Array.length t.times in
  t.times.(i) <- now;
  t.counts.(i) <- count;
  t.len <- t.len + 1

let rate t ~now =
  let cutoff = now -. t.window in
  let cap = Array.length t.times in
  (* Beat times are non-decreasing, so expired samples form a prefix at
     the old end. *)
  while t.len > 0 && t.times.(t.head) <= cutoff do
    t.head <- (t.head + 1) mod cap;
    t.len <- t.len - 1
  done;
  let sum = ref 0. in
  for k = t.len - 1 downto 0 do
    sum := !sum +. t.counts.((t.head + k) mod cap)
  done;
  !sum /. t.window

let reference t = t.reference

let set_reference t r =
  if r <= 0. then invalid_arg "Heartbeats.set_reference: reference <= 0";
  t.reference <- r

let total t = t.clock.total
