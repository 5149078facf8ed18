open Spectr_platform

type t = {
  cell : Campaign.cell;
  invariant : Invariants.kind option;
  digest : string option;
}

let header = "spectr-chaos-reproducer v1"

let to_string a =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let c = a.cell in
  line "%s" header;
  line "seed %Ld" c.Campaign.seed;
  line "index %d" c.Campaign.index;
  line "variant %s" (Campaign.variant_name c.Campaign.variant);
  line "workload %s" c.Campaign.workload;
  List.iter
    (fun i -> line "fault %s" (Faults.injection_to_string i))
    c.Campaign.injections;
  (match c.Campaign.kill with
  | Some k -> line "kill %d %d" k.Campaign.kill_tick k.Campaign.staleness
  | None -> ());
  (match a.invariant with
  | Some k -> line "invariant %s" (Invariants.kind_name k)
  | None -> ());
  (match a.digest with Some d -> line "digest %s" d | None -> ());
  Buffer.contents b

let fail fmt = Printf.ksprintf invalid_arg ("Artifact.of_string: " ^^ fmt)

let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")
  in
  (match lines with
  | h :: _ when h = header -> ()
  | h :: _ -> fail "bad header %S" h
  | [] -> fail "empty artifact");
  let seed = ref None
  and index = ref None
  and variant = ref None
  and workload = ref None
  and faults = ref []
  and kill = ref None
  and invariant = ref None
  and digest = ref None in
  let split_kv l =
    match String.index_opt l ' ' with
    | None -> (l, "")
    | Some i ->
        ( String.sub l 0 i,
          String.sub l (i + 1) (String.length l - i - 1) )
  in
  List.iter
    (fun l ->
      if l <> header then
        let key, v = split_kv l in
        match key with
        | "seed" -> (
            match Int64.of_string_opt v with
            | Some x -> seed := Some x
            | None -> fail "bad seed %S" v)
        | "index" -> (
            match int_of_string_opt v with
            | Some x -> index := Some x
            | None -> fail "bad index %S" v)
        | "variant" -> variant := Some (Spectr.Variant.of_string v)
        | "workload" -> workload := Some v
        | "fault" -> faults := Faults.injection_of_string v :: !faults
        | "kill" -> (
            match String.split_on_char ' ' v with
            | [ t; s ] -> (
                match (int_of_string_opt t, int_of_string_opt s) with
                | Some kill_tick, Some staleness
                  when kill_tick >= 0 && staleness >= 0
                       && staleness <= kill_tick ->
                    kill := Some { Campaign.kill_tick; staleness }
                | _ -> fail "bad kill %S" v)
            | _ -> fail "kill needs 2 fields, got %S" v)
        | "invariant" -> invariant := Some (Invariants.kind_of_string v)
        | "digest" -> digest := Some v
        | _ -> fail "unknown key %S" key)
    lines;
  let require name = function
    | Some x -> x
    | None -> fail "missing %s line" name
  in
  {
    cell =
      {
        Campaign.index = require "index" !index;
        seed = require "seed" !seed;
        variant = require "variant" !variant;
        workload = require "workload" !workload;
        injections = List.rev !faults;
        kill = !kill;
      };
    invariant = !invariant;
    digest = !digest;
  }

let save ~path a =
  (* Crash-safe: temp file in the destination directory, then atomic
     rename, so a crash mid-write never leaves a torn artifact. *)
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "chaos-artifact" ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string a));
  Sys.rename tmp path

let load ~path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic n)
  in
  of_string s

type replay = {
  outcome : Engine.outcome;
  reproduced : bool;
  digest_matched : bool option;
}

let replay a =
  let outcome = Engine.run_cell a.cell in
  {
    outcome;
    reproduced = Engine.violates ?kind:a.invariant outcome;
    digest_matched = Option.map (String.equal outcome.Engine.digest) a.digest;
  }
