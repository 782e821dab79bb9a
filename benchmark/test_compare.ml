(* The comparator must be able to fail: an A/A pair (two sets of runs
   from one distribution) is not flagged, and a 2x slowdown on one
   metric is. The synthetic runs go through the same file loader the
   comparator uses. *)

let bounds = [ ("setup_s", 0.25); ("mops", 0.1); ("p50_us", 0.1); ("p99_us", 0.1); ("mem_mb", 0.1) ]
let base = [ ("setup_s", 0.5); ("mops", 12.); ("p50_us", 0.2); ("p99_us", 1.5); ("mem_mb", 60.) ]

(* Ten runs with up to +-3% deterministic noise; [scale] multiplies one
   metric. *)
let runs ~salt ?(scale = ("", 1.)) () =
  let rng = Random.State.make [| salt |] in
  List.init 10 (fun seed ->
      let metrics =
        List.map
          (fun (n, v) ->
            let noise = 1. +. (Random.State.float rng 0.06 -. 0.03) in
            let f = if n = fst scale then snd scale else 1. in
            Printf.sprintf "%S:{\"value\":%.6f,\"unit\":\"x\"}" n (v *. noise *. f))
          base
      in
      Printf.sprintf
        "{\"meta\":{\"seed\":%d},\"runs\":[{\"workload\":\"set-read-heavy\",\"result\":{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{%s}}}]}"
        seed (String.concat "," metrics))

let write_dir name files =
  if not (Sys.file_exists name) then Sys.mkdir name 0o755;
  List.iteri
    (fun i body ->
      Out_channel.with_open_text (Filename.concat name (Printf.sprintf "run%02d.json" i))
        (fun oc -> output_string oc body))
    files;
  Verdict.load_dir name

let verdicts a b =
  List.map
    (fun (r : Verdict.row) -> (r.metric, r.verdict))
    (Verdict.compare_runs ~bounds a b)

let () =
  let a = write_dir "aa_a" (runs ~salt:1 ()) in
  let b = write_dir "aa_b" (runs ~salt:2 ()) in
  let aa = verdicts a b in
  assert (List.length aa = List.length base);
  List.iter
    (fun (m, v) ->
      if v = Verdict.Regressed || v = Verdict.Improved then
        failwith (Printf.sprintf "A/A flagged %s as %s" m (Verdict.verdict_name v)))
    aa;
  let slow = write_dir "slow_b" (runs ~salt:2 ~scale:("p99_us", 2.) ()) in
  let ab = verdicts a slow in
  List.iter
    (fun (m, v) ->
      let want = if m = "p99_us" then Verdict.Regressed else Verdict.Same in
      if v <> want then
        failwith
          (Printf.sprintf "2x p99_us slowdown: %s judged %s" m (Verdict.verdict_name v)))
    ab;
  (* Halved throughput is a slowdown too (higher is better). *)
  let half = write_dir "half_b" (runs ~salt:2 ~scale:("mops", 0.5) ()) in
  assert (List.assoc "mops" (verdicts a half) = Verdict.Regressed);
  (* And the mirror image is an improvement. *)
  assert (List.assoc "mops" (verdicts half a) = Verdict.Improved);
  print_endline "test_compare: A/A not flagged; 2x slowdowns flagged"
