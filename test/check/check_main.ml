(* Driver for the bounded model-check suite (`dune build @check`).

   Every scenario in [Scenarios.all] runs the production code and must
   survive exploration; the deliberately broken FSet must NOT — its
   counterexample schedule is printed as a demonstration that the
   checker has teeth. Any unexpected outcome writes the offending
   trace under traces/ (uploaded as a CI artifact) and fails the
   build. *)

module Explore = Nbhash_check.Explore

let getenv_int name default =
  match int_of_string_opt (Sys.getenv name) with
  | Some v -> v
  | None -> default
  | exception Not_found -> default

let max_execs = getenv_int "NBHASH_CHECK_EXECS" 20_000
let max_preemptions = getenv_int "NBHASH_CHECK_PREEMPTIONS" 2
let traces_dir = "traces"

let ensure_traces_dir () =
  if not (Sys.file_exists traces_dir) then Sys.mkdir traces_dir 0o755

let slug name =
  String.map (fun c -> if c = ' ' || c = '/' then '-' else c) name

let write_trace name v =
  ensure_traces_dir ();
  let file = Filename.concat traces_dir (slug name ^ ".txt") in
  let oc = open_out file in
  let ppf = Format.formatter_of_out_channel oc in
  Format.fprintf ppf "scenario: %s@.%a@." name Explore.pp_violation v;
  Format.pp_print_flush ppf ();
  close_out oc;
  file

let failures = ref 0

let expect_pass (name, scenario) =
  match Explore.explore ~max_preemptions ~max_execs scenario with
  | Explore.Pass { executions; complete } ->
    Printf.printf "PASS %-38s %5d schedules%s\n%!" name executions
      (if complete then "" else " (budget truncated)")
  | Explore.Fail v ->
    incr failures;
    let file = write_trace name v in
    Printf.printf "FAIL %s (trace written to %s)\n%!" name file;
    Format.printf "%a@." Explore.pp_violation v

let expect_fail (name, scenario) =
  match Explore.explore ~max_preemptions ~max_execs scenario with
  | Explore.Fail v ->
    Printf.printf "PASS %s\n%!" name;
    Format.printf "     counterexample, as it should be:@.%a@."
      Explore.pp_violation v
  | Explore.Pass { executions; complete } ->
    incr failures;
    Printf.printf
      "FAIL %s: no violation in %d schedules%s — the checker lost its \
       teeth\n\
       %!"
      name executions
      (if complete then "" else " (budget truncated)")

let () =
  Printf.printf
    "model check: max %d preemptions, %d schedules per scenario\n%!"
    max_preemptions max_execs;
  List.iter expect_pass Scenarios.all;
  expect_fail Scenarios.broken;
  expect_fail Scenarios.broken_sweep;
  expect_fail Scenarios.broken_flat;
  expect_fail Scenarios.broken_ordered_list;
  if !failures > 0 then begin
    Printf.printf "%d scenario(s) failed\n%!" !failures;
    exit 1
  end
