(* Entry point of the typed-AST concurrency analyzer (DESIGN.md
   System 16).

     analyze.exe [--json FILE] [--debug-shared] DIR...

   Each DIR is a build-context directory (the analyzer runs from
   _build/default under [dune build @analyze]); it is scanned
   recursively for the .cmt artifacts dune's check alias produced, and
   {!Analyze_rules} runs its passes over all of them together (the
   escape heuristic propagates sharedness across units).

   Exit-code hygiene, mirroring tools/bench_compare: 0 clean,
   1 violations found, 2 usage error or broken tool/input — so CI and
   pre-commit hooks can tell "found races" from "tool broke". *)

let usage () =
  prerr_endline "usage: analyze.exe [--json FILE] [--debug-shared] DIR...";
  exit 2

let rec cmt_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then cmt_files path
         else if Filename.check_suffix entry ".cmt" then [ path ]
         else [])

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json path ~dirs ~units ~violations ~magic_ok =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"schema\": \"nbhash-analyze-v1\",\n";
  out "  \"dirs\": [%s],\n"
    (String.concat ", " (List.map (fun d -> "\"" ^ json_escape d ^ "\"") dirs));
  out "  \"units\": %d,\n" units;
  let count rule =
    List.length (List.filter (fun v -> v.Analyze_rules.rule = rule) violations)
  in
  out "  \"rules\": {%s},\n"
    (String.concat ", "
       (List.map
          (fun r -> Printf.sprintf "\"%s\": %d" r (count r))
          Analyze_rules.all_rules));
  out "  \"magic_ok_sites\": [%s],\n"
    (String.concat ", "
       (List.map
          (fun (f, l) ->
            Printf.sprintf "{\"file\": \"%s\", \"line\": %d}" (json_escape f) l)
          magic_ok));
  out "  \"violations\": [";
  List.iteri
    (fun i (v : Analyze_rules.violation) ->
      out "%s\n    {\"file\": \"%s\", \"line\": %d, \"col\": %d, \
           \"rule\": \"%s\", \"message\": \"%s\"}"
        (if i = 0 then "" else ",")
        (json_escape v.file) v.line v.col (json_escape v.rule)
        (json_escape v.message))
    violations;
  out "%s]\n}\n" (if violations = [] then "" else "\n  ");
  close_out oc

let () =
  let json = ref None and debug = ref false and dirs = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: file :: rest ->
        json := Some file;
        parse rest
    | "--json" :: [] -> usage ()
    | "--debug-shared" :: rest ->
        debug := true;
        parse rest
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' -> usage ()
    | dir :: rest ->
        dirs := dir :: !dirs;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let dirs = List.rev !dirs in
  if dirs = [] then usage ();
  List.iter
    (fun d ->
      if not (Sys.file_exists d && Sys.is_directory d) then begin
        Printf.eprintf "analyze: no such directory: %s\n" d;
        exit 2
      end)
    dirs;
  let cmts = List.concat_map cmt_files dirs in
  if cmts = [] then begin
    Printf.eprintf
      "analyze: no .cmt artifacts under %s — run `dune build @check-cmt` \
       first\n"
      (String.concat " " dirs);
    exit 2
  end;
  if !debug then begin
    List.iter print_endline (Analyze_rules.debug_shared cmts);
    exit 0
  end;
  match Analyze_rules.analyze cmts with
  | exception Failure msg ->
      Printf.eprintf "analyze: %s\n" msg;
      exit 2
  | violations, units ->
      let magic_ok = Analyze_rules.magic_ok_sites cmts in
      Option.iter
        (fun f -> write_json f ~dirs ~units ~violations ~magic_ok)
        !json;
      if violations = [] then begin
        Printf.printf "analyze: %d units clean (%s); %d magic_ok site(s)%s\n"
          units (String.concat " " dirs) (List.length magic_ok)
          (String.concat ""
             (List.map (fun (f, l) -> Printf.sprintf " %s:%d" f l) magic_ok));
        exit 0
      end
      else begin
        List.iter
          (fun v -> Format.eprintf "%a@." Analyze_rules.pp_violation v)
          violations;
        Printf.eprintf "analyze: %d violation(s) in %d units\n"
          (List.length violations) units;
        exit 1
      end
