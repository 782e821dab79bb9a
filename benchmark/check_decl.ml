(* check_decl BENCHMARK.json

   The declaration check: BENCHMARK.json declares exactly the
   workloads and metrics nbbench can emit (Decl), with the same units
   and directions, within the limits a benchmark declaration must keep;
   and every per-layer metric names a declared end-to-end metric and
   declared workloads it should move. *)

module J = Nbhash_util.Json

let errors = ref []
let error fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt
let expect ok fmt = Printf.ksprintf (fun s -> if not ok then errors := s :: !errors) fmt

let field name j = match J.member name j with Some v -> v | None -> J.Null
let str name j = Option.value ~default:"" (J.to_str (field name j))
let list name j = Option.value ~default:[] (J.to_list (field name j))

let check_metrics kind entries (decl : Decl.metric list) ~bounded =
  let names = List.map (str "name") entries in
  expect
    (names = List.map (fun (m : Decl.metric) -> m.name) decl)
    "%s: BENCHMARK.json declares [%s], nbbench emits [%s]" kind
    (String.concat " " names)
    (String.concat " " (List.map (fun (m : Decl.metric) -> m.name) decl));
  List.iter
    (fun e ->
      let name = str "name" e in
      expect (Decl.valid_name name) "%s: bad metric name %S" kind name;
      let keys = Option.value ~default:[] (J.keys e) in
      let want = [ "name"; "unit"; "better" ] @ if bounded then [ "bound" ] else [] in
      expect (List.sort compare keys = List.sort compare want)
        "%s %s: keys must be exactly %s" kind name (String.concat "," want);
      match List.find_opt (fun (m : Decl.metric) -> m.name = name) decl with
      | None -> ()
      | Some m ->
        expect (str "unit" e = m.unit_) "%s: unit %S, nbbench says %S" name
          (str "unit" e) m.unit_;
        expect
          (str "better" e = Decl.better_to_string m.better)
          "%s: better %S, nbbench says %S" name (str "better" e)
          (Decl.better_to_string m.better);
        if bounded then
          match J.to_num (field "bound" e) with
          | Some b -> expect (b > 0. && b <= 0.25) "%s: bound %g outside (0, 0.25]" name b
          | None -> error "%s: no bound" name)
    entries

let () =
  let path = Sys.argv.(1) in
  let j =
    match J.parse_file path with
    | Ok j -> j
    | Error e ->
      prerr_endline (path ^ ": " ^ e);
      exit 1
  in
  expect
    (List.sort compare (Option.value ~default:[] (J.keys j))
    = [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ])
    "top-level keys must be exactly command, paths, run_seconds, workloads, \
     end_to_end, per_layer";
  expect
    (J.to_num (field "run_seconds" j) = Some (float Decl.default_seconds))
    "run_seconds must be nbbench's default --seconds (%d)" Decl.default_seconds;
  expect
    (List.map (str "name") (list "workloads" j) = Decl.workloads)
    "workloads must be %s" (String.concat ", " Decl.workloads);
  List.iter
    (fun w ->
      let why = str "why" w in
      expect
        (why <> "" && String.length why <= 200 && not (String.contains why '\n'))
        "workload %s: why must be one line of at most 200 characters" (str "name" w))
    (list "workloads" j);
  let e2e = list "end_to_end" j and layer = list "per_layer" j in
  expect (List.length e2e >= 1 && List.length e2e <= 16) "1 to 16 end-to-end metrics";
  expect (List.length layer >= 1 && List.length layer <= 128) "1 to 128 per-layer metrics";
  check_metrics "end_to_end" e2e Decl.end_to_end ~bounded:true;
  check_metrics "per_layer" layer Decl.per_layer ~bounded:false;
  (* setup_s carries the largest bound. *)
  let bound e = Option.value ~default:0. (J.to_num (field "bound" e)) in
  (match List.find_opt (fun e -> str "name" e = "setup_s") e2e with
  | Some s ->
    expect
      (List.for_all (fun e -> bound e <= bound s) e2e)
      "setup_s must have the largest bound"
  | None -> error "setup_s must be declared");
  let all = List.map (fun (m : Decl.metric) -> m.name) Decl.all in
  expect
    (List.length (List.sort_uniq compare all) = List.length all)
    "metric names must be unique";
  List.iter
    (fun (m : Decl.metric) ->
      match m.moves with
      | None -> error "%s: says nothing about what it should move" m.name
      | Some (target, ws) ->
        expect
          (List.exists (fun (e : Decl.metric) -> e.name = target) Decl.end_to_end)
          "%s: moves undeclared end-to-end metric %s" m.name target;
        expect
          (ws <> [] && List.for_all (fun w -> List.mem w Decl.workloads) ws)
          "%s: moves undeclared workloads" m.name)
    Decl.per_layer;
  match !errors with
  | [] ->
    Printf.printf "check_decl: %d workloads, %d end-to-end and %d per-layer metrics \
                   declared and emitted\n"
      (List.length Decl.workloads) (List.length Decl.end_to_end)
      (List.length Decl.per_layer)
  | es ->
    List.iter (fun e -> prerr_endline ("check_decl: " ^ e)) (List.rev es);
    exit 1
