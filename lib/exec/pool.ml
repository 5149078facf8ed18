type t = {
  jobs : int;
  mutex : Mutex.t;
  pending : (unit -> unit) Queue.t;
  wake : Condition.t; (* workers: task available or shutting down *)
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

(* The pool whose task the current domain is executing, if any.  [map]
   called from inside one of its own tasks can deadlock (the nested
   tasks join the very queue the enclosing map is blocking on), so it is
   detected here and rejected immediately instead of hanging.  Only the
   innermost pool is tracked: mapping over a *different* pool from
   inside a task is legal and the slot is saved/restored around each
   task.  The sequential path sets it too, so the re-entrancy check does
   not depend on the job count. *)
let running_in : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let c_maps = Spectr_obs.Counters.counter "pool.parallel_maps"
let c_tasks = Spectr_obs.Counters.counter "pool.tasks"

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | _ -> None

let default_jobs () =
  match Option.bind (Sys.getenv_opt "SPECTR_JOBS") parse_jobs with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

(* Workers block on [wake] until a task is queued or the pool stops.
   Tasks never raise: [map] wraps every application in its own handler. *)
let worker_loop t =
  let rec next () =
    if not (Queue.is_empty t.pending) then Some (Queue.pop t.pending)
    else if t.stopping then None
    else begin
      Condition.wait t.wake t.mutex;
      next ()
    end
  in
  let rec run () =
    Mutex.lock t.mutex;
    match next () with
    | None -> Mutex.unlock t.mutex
    | Some task ->
        Mutex.unlock t.mutex;
        task ();
        run ()
  in
  run ()

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create: jobs < 1";
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      pending = Queue.create ();
      wake = Condition.create ();
      stopping = false;
      workers = [];
    }
  in
  (* The submitter works too, so n jobs need n-1 spawned domains.  Fresh
     domains reset the backtrace-recording flag to the OCAMLRUNPARAM
     default, so propagate the creator's setting — task exceptions carry
     their original backtrace (see [map]) only if the domain that ran
     them recorded one. *)
  let record_bt = Printexc.backtrace_status () in
  t.workers <-
    List.init (jobs - 1) (fun _ ->
        Domain.spawn (fun () ->
            Printexc.record_backtrace record_bt;
            worker_loop t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  let workers = t.workers in
  t.workers <- [];
  List.iter Domain.join workers

(* Run one application as a task of the pool in [me] (that pool's
   marker, allocated once per map): the marker is set for its duration
   and restored afterwards, also when [f] raises. *)
let run_task me f x =
  let saved = Domain.DLS.get running_in in
  Domain.DLS.set running_in me;
  match f x with
  | y ->
      Domain.DLS.set running_in saved;
      y
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Domain.DLS.set running_in saved;
      Printexc.raise_with_backtrace e bt

let check_reentrant t =
  match Domain.DLS.get running_in with
  | Some p when p == t ->
      invalid_arg "Pool.map: re-entrant call from inside a task of this pool"
  | _ -> ()

(* Shared parallel body over arrays: [map] wraps it in list conversions,
   [map_array] (the fleet engine's shard fan-out) uses it directly so a
   10k-element shard table never round-trips through a list. *)
let map_array t f input =
  check_reentrant t;
  if t.jobs = 1 || t.workers = [] || Array.length input = 0 then
    Array.map (run_task (Some t) f) input
  else begin
    Spectr_obs.Counters.incr c_maps;
    let n = Array.length input in
    Spectr_obs.Counters.add c_tasks n;
    let me = Some t in
    let results = Array.make n None in
    let errors = Array.make n None in
    let remaining = ref n in (* guarded by t.mutex *)
    let finished = Condition.create () in
    let task i () =
      (try results.(i) <- Some (run_task me f input.(i))
       with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
      Mutex.lock t.mutex;
      decr remaining;
      if !remaining = 0 then Condition.broadcast finished;
      Mutex.unlock t.mutex
    in
    Mutex.lock t.mutex;
    for i = 0 to n - 1 do
      Queue.push (task i) t.pending
    done;
    Condition.broadcast t.wake;
    (* Drain the queue from the submitting domain, then wait for the
       stragglers the workers picked up. *)
    let rec drain () =
      if not (Queue.is_empty t.pending) then begin
        let task = Queue.pop t.pending in
        Mutex.unlock t.mutex;
        task ();
        Mutex.lock t.mutex;
        drain ()
      end
    in
    drain ();
    while !remaining > 0 do
      Condition.wait finished t.mutex
    done;
    Mutex.unlock t.mutex;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.map Option.get results
  end

let map t f xs =
  check_reentrant t;
  if t.jobs = 1 || t.workers = [] || xs = [] then
    (* [List.map] evaluates head first, as the parallel path submits. *)
    List.map (run_task (Some t) f) xs
  else Array.to_list (map_array t f (Array.of_list xs))
