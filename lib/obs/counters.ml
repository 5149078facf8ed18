(* Named monotonic counters and gauges in a domain-safe registry.

   A counter is sharded: each domain increments the shard its id hashes
   onto with a plain fetch-and-add, so parallel scenario workers never
   contend on one cache line; [value] merges the shards.  Gauges are
   single-cell last-write-wins (low rate: budget levels, pool size).

   All mutation entry points check the global enable flag first and do
   nothing — allocating nothing — while instrumentation is disabled, so
   call sites can stay unconditional. *)

let shard_count = 8 (* power of two *)

type t = { name : string; shards : int Atomic.t array }
type gauge = float Atomic.t

let counters : (string, t) Hashtbl.t = Hashtbl.create 32
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 8
let mu = Mutex.create ()

let counter name =
  Mutex.lock mu;
  let c =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
        let c =
          { name; shards = Array.init shard_count (fun _ -> Atomic.make 0) }
        in
        Hashtbl.add counters name c;
        c
  in
  Mutex.unlock mu;
  c

let gauge name =
  Mutex.lock mu;
  let g =
    match Hashtbl.find_opt gauges name with
    | Some g -> g
    | None ->
        let g = Atomic.make 0. in
        Hashtbl.add gauges name g;
        g
  in
  Mutex.unlock mu;
  g

let shard () = (Domain.self () :> int) land (shard_count - 1)

let add c n =
  if Atomic.get State.enabled then
    ignore (Atomic.fetch_and_add c.shards.(shard ()) n)

let incr c = add c 1
let value c = Array.fold_left (fun acc s -> acc + Atomic.get s) 0 c.shards
let name c = c.name
let set g v = if Atomic.get State.enabled then Atomic.set g v
let gauge_value = Atomic.get

let by_name n =
  Mutex.lock mu;
  let c = Hashtbl.find_opt counters n in
  Mutex.unlock mu;
  Option.map value c

let snapshot () =
  Mutex.lock mu;
  let xs = Hashtbl.fold (fun name c acc -> (name, value c) :: acc) counters [] in
  Mutex.unlock mu;
  List.sort (fun (a, _) (b, _) -> compare a b) xs

let gauge_snapshot () =
  Mutex.lock mu;
  let xs =
    Hashtbl.fold (fun name g acc -> (name, gauge_value g) :: acc) gauges []
  in
  Mutex.unlock mu;
  List.sort (fun (a, _) (b, _) -> compare a b) xs

let reset () =
  Mutex.lock mu;
  Hashtbl.iter
    (fun _ c -> Array.iter (fun s -> Atomic.set s 0) c.shards)
    counters;
  Hashtbl.iter (fun _ g -> Atomic.set g 0.) gauges;
  Mutex.unlock mu
