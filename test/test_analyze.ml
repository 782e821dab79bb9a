(* Negative controls for the typed-AST analyzer (tools/analyze,
   DESIGN.md System 16): each seeded fixture violation must be caught
   under its exact rule name, and the clean fixture must stay clean.
   The .cmt artifacts are built by the dune dependency on
   fixtures/analyze/check and read from the build context. *)

(* Works both under [dune runtest] (cwd = _build/default/test) and
   [dune exec test/test_main.exe] from the repo root. *)
let fixture_dir () =
  List.find Sys.file_exists
    [ "fixtures/analyze"; "_build/default/test/fixtures/analyze" ]

let rec cmt_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then cmt_files path
         else if Filename.check_suffix entry ".cmt" then [ path ]
         else [])

let violations =
  lazy
    (let cmts = cmt_files (fixture_dir ()) in
     Alcotest.(check bool) "fixture cmts found" true (cmts <> []);
     fst (Analyze_rules.analyze cmts))

let in_file base (v : Analyze_rules.violation) =
  Filename.basename v.file = base

let rules_in base =
  List.filter (in_file base) (Lazy.force violations)
  |> List.map (fun (v : Analyze_rules.violation) -> v.rule)
  |> List.sort_uniq compare

let check_fires fixture rule () =
  let rules = rules_in fixture in
  Alcotest.(check bool)
    (Printf.sprintf "%s fires in %s (got: %s)" rule fixture
       (String.concat ", " rules))
    true (List.mem rule rules)

let test_clean () =
  let vs = List.filter (in_file "fix_clean.ml") (Lazy.force violations) in
  Alcotest.(check int) "fix_clean.ml reports nothing" 0 (List.length vs)

let test_locations () =
  (* every violation carries a real location inside its fixture *)
  List.iter
    (fun (v : Analyze_rules.violation) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s:%d has a fixture file and line" v.file v.line)
        true
        (v.line >= 1
        && Filename.check_suffix v.file ".ml"
        && String.length (Filename.basename v.file) > 0))
    (Lazy.force violations)

let test_only_fixture_rules () =
  (* no violation escapes the known rule vocabulary *)
  List.iter
    (fun (v : Analyze_rules.violation) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s is a known rule" v.rule)
        true
        (List.mem v.rule Analyze_rules.all_rules))
    (Lazy.force violations)

(* The audit list: the attributed [Obj.magic] of fix_blocking.ml is
   listed, the bare one (flagged instead) is not. *)
let test_magic_ok_sites () =
  let sites =
    Analyze_rules.magic_ok_sites (cmt_files (fixture_dir ()))
    |> List.map (fun (f, l) -> (Filename.basename f, l))
  in
  Alcotest.(check (list (pair string int)))
    "allowed Obj.magic sites" [ ("fix_blocking.ml", 13) ] sites

let suite =
  [
    ( "analyze",
      [
        Alcotest.test_case "aliased Stdlib.Atomic -> atomic-alias" `Quick
          (check_fires "fix_atomic_alias.ml" "atomic-alias");
        Alcotest.test_case "unattributed shared mutable -> shared-mutable"
          `Quick
          (check_fires "fix_plain_field.ml" "shared-mutable");
        Alcotest.test_case "get/set RMW -> cas-rmw" `Quick
          (check_fires "fix_cas_rmw.ml" "cas-rmw");
        Alcotest.test_case "discarded CAS -> cas-ignored" `Quick
          (check_fires "fix_cas_ignored.ml" "cas-ignored");
        Alcotest.test_case "Mutex -> blocking-call" `Quick
          (check_fires "fix_blocking.ml" "blocking-call");
        Alcotest.test_case "Obj.magic -> obj-magic" `Quick
          (check_fires "fix_blocking.ml" "obj-magic");
        Alcotest.test_case "reasonless attribute -> attr-reason" `Quick
          (check_fires "fix_blocking.ml" "attr-reason");
        Alcotest.test_case "magic_ok sites are listed" `Quick
          test_magic_ok_sites;
        Alcotest.test_case "clean fixture stays clean" `Quick test_clean;
        Alcotest.test_case "violations carry exact locations" `Quick
          test_locations;
        Alcotest.test_case "rule names stay in the vocabulary" `Quick
          test_only_fixture_rules;
      ] );
  ]
