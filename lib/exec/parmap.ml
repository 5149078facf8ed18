(* Created on first use from whichever domain gets there first.  A
   plain [lazy] raises [CamlinternalLazy.Undefined] when two domains
   force it at once, so creation runs under a mutex and later reads are
   one atomic load. *)
let default = Atomic.make None
let default_lock = Mutex.create ()

let default_pool () =
  match Atomic.get default with
  | Some pool -> pool
  | None ->
      Mutex.protect default_lock (fun () ->
          match Atomic.get default with
          | Some pool -> pool
          | None ->
              let pool = Pool.create () in
              at_exit (fun () -> Pool.shutdown pool);
              Atomic.set default (Some pool);
              pool)

let resolve = function Some pool -> pool | None -> default_pool ()

let jobs () = Pool.jobs (resolve None)
let map ?pool f xs = Pool.map (resolve pool) f xs

let mapi ?pool f xs =
  map ?pool (fun (i, x) -> f i x) (List.mapi (fun i x -> (i, x)) xs)

let map_array ?pool f xs = Pool.map_array (resolve pool) f xs
let iter ?pool f xs = ignore (map ?pool f xs : unit list)

let map_deferred ?pool f xs =
  map ?pool
    (fun x ->
      match f x with
      | y -> Ok y
      | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    xs
  |> List.map (fun r () ->
         match r with
         | Ok y -> y
         | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
