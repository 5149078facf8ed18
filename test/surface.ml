(* Public-surface gate.

   Usage: surface.exe LIB_DIR OTHER_DIR...

   Lists every [val] declared in a [.mli] under LIB_DIR whose name
   appears in no [.ml]/[.mli] file outside its own module, once OCaml
   comments and string/char literals are stripped.  Exits 1 when that
   list is non-empty.  A name-token match is a lower bound on what is
   surplus: a value whose name collides with a name elsewhere counts as
   referenced.

   It also lists every module under LIB_DIR whose name appears in no
   file outside a directory called [test] but its own: code that only
   tests reach.  It exits 1 when that list is non-empty too.

   It also prints the exported-value count, how many exports are named
   outside their module only under [test] (and lists them), the [?label:]
   optional-argument count of the [.mli] files under LIB_DIR, the line
   count of the [.ml]/[.mli] and C stub ([.c]) files outside [test] and
   the line count of the [.ml] files inside it, so every change can
   report the figures from one command.  C files count only as lines:
   their tokens name no OCaml value and they are no module. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec walk dir acc =
  let names = Sys.readdir dir in
  Array.sort compare names;
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if name.[0] = '.' then acc
      else if Sys.is_directory path then walk path acc
      else if
        List.exists (Filename.check_suffix name) [ ".ml"; ".mli"; ".c" ]
      then path :: acc
      else acc)
    acc names

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '\''

(* Length of the char literal starting at [s.[i] = '\''], or 0 when the
   quote is a type variable or a prime instead. *)
let char_literal_len s i =
  let n = String.length s in
  if i + 2 < n && s.[i + 1] <> '\\' && s.[i + 2] = '\'' then 3
  else if i + 1 < n && s.[i + 1] = '\\' then begin
    let j = ref (i + 2) in
    while !j < n && !j < i + 6 && s.[!j] <> '\'' do incr j done;
    if !j < n && s.[!j] = '\'' && !j > i + 2 then !j - i + 1 else 0
  end
  else 0

(* Index after the "..." literal whose opening quote is at [i]. *)
let string_end s i =
  let n = String.length s in
  let j = ref (i + 1) in
  while !j < n && s.[!j] <> '"' do
    if s.[!j] = '\\' then j := !j + 2 else incr j
  done;
  min n (!j + 1)

(* Index after the {id|...|id} literal opening at [i], if there is one. *)
let quoted_string_end s i =
  let n = String.length s in
  let j = ref (i + 1) in
  while !j < n && (s.[!j] = '_' || (s.[!j] >= 'a' && s.[!j] <= 'z')) do incr j done;
  if !j < n && s.[!j] = '|' then begin
    let close = "|" ^ String.sub s (i + 1) (!j - i - 1) ^ "}" in
    let m = String.length close in
    let k = ref (!j + 1) in
    while !k + m <= n && String.sub s !k m <> close do incr k done;
    Some (min n (!k + m))
  end
  else None

(* [s] with every comment and string/char literal blanked out. *)
let strip s =
  let n = String.length s in
  let b = Bytes.of_string s in
  let blank i j = Bytes.fill b i (j - i) ' ' in
  (* Index after the literal at [i], or [i] when there is none. *)
  let literal i =
    match s.[i] with
    | '"' -> string_end s i
    | '{' -> Option.value ~default:i (quoted_string_end s i)
    | '\'' -> i + char_literal_len s i
    | _ -> i
  in
  let rec comment i depth =
    if depth = 0 || i >= n then min i n
    else if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then comment (i + 2) (depth + 1)
    else if i + 1 < n && s.[i] = '*' && s.[i + 1] = ')' then comment (i + 2) (depth - 1)
    else comment (max (i + 1) (literal i)) depth
  in
  let rec code i =
    if i < n then
      if i + 1 < n && s.[i] = '(' && s.[i + 1] = '*' then begin
        let j = comment (i + 2) 1 in
        blank i j;
        code j
      end
      else if is_ident_start s.[i] then begin
        (* A prime inside an identifier is not a char literal. *)
        let j = ref i in
        while !j < n && is_ident_char s.[!j] do incr j done;
        code !j
      end
      else
        let j = literal i in
        if j > i then (blank i j; code j) else code (i + 1)
  in
  code 0;
  Bytes.to_string b

let tokens s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ident_start s.[i] then begin
      let j = ref i in
      while !j < n && is_ident_char s.[!j] do incr j done;
      go !j (String.sub s i (!j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

(* [?label:] occurrences in stripped text. *)
let optional_args s =
  let n = String.length s in
  let k = ref 0 in
  for i = 0 to n - 2 do
    if s.[i] = '?' && is_ident_start s.[i + 1] then begin
      let j = ref (i + 1) in
      while !j < n && is_ident_char s.[!j] do incr j done;
      if !j < n && s.[!j] = ':' then incr k
    end
  done;
  !k

let in_test path = List.mem "test" (String.split_on_char '/' path)

let count_lines s =
  let k = ref 0 in
  String.iter (fun c -> if c = '\n' then incr k) s;
  !k

let () =
  let dirs = List.tl (Array.to_list Sys.argv) in
  let lib_dir =
    match dirs with
    | d :: _ -> d
    | [] -> prerr_endline "usage: surface.exe LIB_DIR OTHER_DIR..."; exit 2
  in
  let files = List.sort compare (List.concat_map (fun d -> walk d []) dirs) in
  let c_files, files = List.partition (fun p -> Filename.check_suffix p ".c") files in
  let sources =
    List.map (fun p -> (p, Filename.remove_extension p, read_file p)) files
  in
  (* name -> the modules it is named in, each with whether it is a test. *)
  let users : (string, (string * bool) list) Hashtbl.t = Hashtbl.create 4096 in
  let stripped =
    List.map
      (fun (path, m, text) ->
        let s = strip text in
        let t = in_test path in
        List.iter
          (fun tok ->
            let l = Option.value ~default:[] (Hashtbl.find_opt users tok) in
            if not (List.mem (m, t) l) then Hashtbl.replace users tok ((m, t) :: l))
          (tokens s);
        (path, m, text, s))
      sources
  in
  let lib_prefix = lib_dir ^ "/" in
  let is_lib_mli p =
    String.starts_with ~prefix:lib_prefix p && Filename.check_suffix p ".mli"
  in
  let exports = ref 0 and test_only = ref [] and optional = ref 0 in
  let lines = ref 0 and test_lines = ref 0 and unreferenced = ref [] in
  List.iter
    (fun p -> if not (in_test p) then lines := !lines + count_lines (read_file p))
    c_files;
  List.iter
    (fun (path, m, text, s) ->
      if not (in_test path) then lines := !lines + count_lines text
      else if Filename.check_suffix path ".ml" then
        test_lines := !test_lines + count_lines text;
      if is_lib_mli path then begin
        optional := !optional + optional_args s;
        let rec scan = function
          | "val" :: name :: rest ->
              incr exports;
              let others =
                List.filter
                  (fun (m', _) -> m' <> m)
                  (Option.value ~default:[] (Hashtbl.find_opt users name))
              in
              let qualified =
                Printf.sprintf "%s.%s"
                  (String.capitalize_ascii (Filename.basename m))
                  name
              in
              if others = [] then unreferenced := qualified :: !unreferenced
              else if List.for_all snd others then
                test_only := qualified :: !test_only;
              scan rest
          | _ :: rest -> scan rest
          | [] -> ()
        in
        scan (tokens s)
      end)
    stripped;
  Printf.printf "exported values:          %d\n" !exports;
  Printf.printf "named only in tests:      %d\n" (List.length !test_only);
  List.iter (Printf.printf "  %s\n") (List.rev !test_only);
  Printf.printf "optional ?label: args:    %d\n" !optional;
  Printf.printf "non-test .ml/.mli/.c lines: %d\n" !lines;
  Printf.printf "test .ml lines:           %d\n" !test_lines;
  Printf.printf "unreferenced exports:     %d\n" (List.length !unreferenced);
  List.iter (Printf.printf "  %s\n") (List.rev !unreferenced);
  (* A module is named by its capitalized file name, from any file
     outside [test] but its own. *)
  let test_only_modules =
    List.sort_uniq compare
      (List.filter_map
         (fun (path, m, _) ->
           let name = String.capitalize_ascii (Filename.basename m) in
           let reached =
             List.exists
               (fun (m', t) -> m' <> m && not t)
               (Option.value ~default:[] (Hashtbl.find_opt users name))
           in
           if String.starts_with ~prefix:lib_prefix path && not reached then
             Some name
           else None)
         sources)
  in
  Printf.printf "test-only modules:        %d\n" (List.length test_only_modules);
  List.iter (Printf.printf "  %s\n") test_only_modules;
  if !unreferenced <> [] || test_only_modules <> [] then exit 1
