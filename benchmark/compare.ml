(* compare [--bench BENCHMARK.json] DIR_A DIR_B

   Compares the nbbench --out files in DIR_A (the parent) with those in
   DIR_B (the change), per (workload, metric): each side's median and
   quartiles, the share of pairs B won, and a verdict (Verdict). Runs
   are paired in seed order. Exits 1 if any end-to-end metric
   regressed. *)

let () =
  let bench, a, b =
    match List.tl (Array.to_list Sys.argv) with
    | [ "--bench"; p; a; b ] -> (p, a, b)
    | [ a; b ] -> ("BENCHMARK.json", a, b)
    | _ ->
      prerr_endline "usage: compare [--bench BENCHMARK.json] DIR_A DIR_B";
      exit 2
  in
  let bounds =
    match Nbhash_util.Json.parse_file bench with
    | Ok j -> Verdict.bounds_of_json j
    | Error e ->
      prerr_endline (bench ^ ": " ^ e);
      exit 2
  in
  let rows =
    try Verdict.compare_runs ~bounds (Verdict.load_dir a) (Verdict.load_dir b)
    with Failure e | Sys_error e ->
      prerr_endline e;
      exit 2
  in
  let q v = Verdict.quartiles v in
  Printf.printf "%-16s %-34s %26s %26s %8s %7s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "B/A" "B won" "verdict";
  List.iter
    (fun (r : Verdict.row) ->
      let qa = q r.a and qb = q r.b in
      let side q = Printf.sprintf "%.4g [%.4g, %.4g]" q.(1) q.(0) q.(2) in
      Printf.printf "%-16s %-34s %26s %26s %8.3f %3d/%-3d  %s\n" r.workload r.metric
        (side qa) (side qb)
        (if qa.(1) = 0. then nan else qb.(1) /. qa.(1))
        r.won r.pairs
        (Verdict.verdict_name r.verdict))
    rows;
  let regressed =
    List.filter
      (fun (r : Verdict.row) ->
        r.verdict = Verdict.Regressed && List.mem_assoc r.metric bounds)
      rows
  in
  Printf.printf "%d rows, %d end-to-end regressions\n" (List.length rows)
    (List.length regressed);
  exit (if regressed = [] then 0 else 1)
