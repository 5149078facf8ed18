(* Host clocks and process counters, all allocation-free on the hot path.

   [now_ns] binds the same C stub as [Monotonic_clock.now] directly: the
   library wrapper returns a boxed int64 when it is not inlined, and a
   span that allocates would pollute the B/call rows it measures. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

(* Seconds spent in [f ()], with its result. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, float_of_int (now_ns () - t0) /. 1e9)

let word_bytes = Sys.word_size / 8

(* Peak resident set size of this process (VmHWM), in MB; 0 when
   /proc is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:"
          ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan
