(* nbbench: the repository's benchmark. See benchmark/README.md.

   nbbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
           [--out PATH] [--trace-out PATH] [--server PATH]

   Runs one workload (or, without --workload, all four in turn),
   checks every answer, prints every metric with its unit, and ends
   its standard output with one JSON line:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
   With --trace 0 the metrics are the end-to-end ones. With --trace 1
   the run makes an untraced pass and a traced pass of S/2 seconds
   each, runs the layer probes, writes the spans as Chrome trace JSON,
   prints the self time per span name and both passes' end-to-end
   figures, and reports the per-layer metrics. Exits 1 if any check
   failed. *)

type opts = {
  workloads : string list;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  trace_out : string option;
  server : string;
}

let usage () =
  prerr_endline
    "usage: nbbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
     [--out PATH] [--trace-out PATH] [--server PATH]";
  Printf.eprintf "workloads: %s\n" (String.concat ", " Decl.workloads);
  exit 2

let parse_args () =
  let exe_dir = Filename.dirname Sys.executable_name in
  let o =
    ref
      {
        workloads = Decl.workloads;
        seed = 1;
        seconds = float Decl.default_seconds;
        trace = false;
        out = None;
        trace_out = None;
        server = Filename.concat exe_dir "../bin/nbhash_cli.exe";
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w Decl.workloads ->
      o := { !o with workloads = [ w ] };
      go rest
    | "--seed" :: n :: rest when int_of_string_opt n <> None ->
      o := { !o with seed = int_of_string n };
      go rest
    | "--seconds" :: s :: rest
      when Option.fold ~none:false ~some:(fun s -> s > 0.) (float_of_string_opt s)
      ->
      o := { !o with seconds = float_of_string s };
      go rest
    | "--trace" :: (("0" | "1") as t) :: rest ->
      o := { !o with trace = t = "1" };
      go rest
    | "--out" :: p :: rest ->
      o := { !o with out = Some p };
      go rest
    | "--trace-out" :: p :: rest ->
      o := { !o with trace_out = Some p };
      go rest
    | "--server" :: p :: rest ->
      o := { !o with server = p };
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  !o

(* --- output --- *)

let json_string s = "\"" ^ Nbhash_telemetry.Meta.json_escape s ^ "\""

(* Non-finite values are already counted as failures (check_complete);
   they print as 0 to keep the line valid JSON. *)
let json_num v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metrics_json (out : Outcome.t) (ms : Decl.metric list) =
  "{"
  ^ String.concat ","
      (List.map
         (fun (m : Decl.metric) ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string m.name)
             (json_num (Option.value ~default:0. (Outcome.get out m.name)))
             (json_string m.unit_))
         ms)
  ^ "}"

let result_json (out : Outcome.t) ms =
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}"
    (out.failed = 0) out.attempted out.failed (metrics_json out ms)

let git_rev () =
  let read p = In_channel.with_open_text p In_channel.input_all |> String.trim in
  try
    let head = read ".git/HEAD" in
    match String.split_on_char ' ' head with
    | [ "ref:"; r ] -> read (Filename.concat ".git" r)
    | _ -> head
  with Sys_error _ -> "unknown"

let meta_json o =
  Printf.sprintf
    "{\"nproc\":%d,\"git_rev\":%s,\"ocaml\":%s,\"seed\":%d,\"seconds\":%s,\"trace\":%b,\"argv\":[%s]}"
    (Domain.recommended_domain_count ())
    (json_string (git_rev ()))
    (json_string Sys.ocaml_version)
    o.seed (json_num o.seconds) o.trace
    (String.concat "," (List.map json_string (Array.to_list Sys.argv)))

let print_metrics (out : Outcome.t) ms =
  List.iter
    (fun (m : Decl.metric) ->
      match Outcome.get out m.name with
      | Some v -> Printf.printf "  %-40s %14.4f %s\n" m.name v m.unit_
      | None -> ())
    ms

(* A metric the workload measures must have been set; one it does not
   measure reads 0 (Decl). *)
let check_complete (out : Outcome.t) ~workload ms =
  List.iter
    (fun (m : Decl.metric) ->
      match Outcome.get out m.name with
      | None when List.mem workload m.measured_in ->
        Outcome.fail out ("metric not measured: " ^ m.name)
      | Some v when not (Float.is_finite v) ->
        Outcome.fail out ("metric not finite: " ^ m.name)
      | _ -> ())
    ms

(* --- one workload --- *)

let session out o workload =
  match workload with
  | w when w = Decl.read_heavy -> Set_load.read_heavy out ~seed:o.seed
  | w when w = Decl.grow_shrink -> Set_load.grow_shrink out ~seed:o.seed
  | w when w = Decl.kv_open -> Kv_load.open_loop_workload out ~exe:o.server ~seed:o.seed
  | _ -> Kv_load.closed_loop_workload out ~exe:o.server ~seed:o.seed

let span_cap = 1 lsl 16

let trace_path o workload =
  match o.trace_out with
  | Some p when List.length o.workloads = 1 -> p
  | Some p -> Printf.sprintf "%s.%s.json" (Filename.remove_extension p) workload
  | None ->
    if not (Sys.file_exists ".nbbench") then Sys.mkdir ".nbbench" 0o755;
    Printf.sprintf ".nbbench/trace-%s-%d.json" workload o.seed

(* --trace 1: an untraced and a traced pass of half the time each,
   then the layer probes, the Chrome trace, the self time per span name
   and both passes' end-to-end figures side by side. *)
let traced_run out o workload (s : Outcome.session) =
  let half = o.seconds /. 2. in
  let plain = s.measure ~seconds:half ~spans:None in
  let bufs = Array.init 2 (fun tid -> Spans.create ~tid span_cap) in
  let traced = s.measure ~seconds:half ~spans:(Some bufs) in
  Probes.run out ~spans:(Some bufs.(0)) ~seed:o.seed;
  let mem = s.finish () in
  Outcome.set out "trace.overhead_pct" (100. *. ((traced.p50_us /. plain.p50_us) -. 1.));
  let path = trace_path o workload in
  let bufs = Array.to_list bufs in
  Spans.write_chrome path bufs;
  Printf.printf "  trace: %d spans (%d dropped) -> %s\n" (Spans.recorded bufs)
    (Spans.dropped bufs) path;
  Printf.printf "  %-24s %10s %14s %14s\n" "span" "count" "total_ms" "self_ms";
  List.iter
    (fun (name, count, total, self) ->
      Printf.printf "  %-24s %10d %14.3f %14.3f\n" name count (float total /. 1e6)
        (float self /. 1e6))
    (Spans.self_times bufs);
  Printf.printf "  end to end   %14s %14s\n" "untraced" "traced";
  List.iter
    (fun (name, f) -> Printf.printf "  %-12s %14.4f %14.4f\n" name (f plain) (f traced))
    [
      ("mops", fun (p : Outcome.pass) -> p.mops);
      ("p50_us", fun p -> p.p50_us);
      ("p99_us", fun p -> p.p99_us);
    ];
  Printf.printf "  %-12s %14.4f\n" "mem_mb" mem

let run_workload o workload =
  let out = Outcome.create () in
  Printf.printf "== %s (seed %d, %gs%s)\n%!" workload o.seed o.seconds
    (if o.trace then ", traced" else "");
  (try
     let s = session out o workload in
     Outcome.set out "setup_s" s.setup_s;
     if o.trace then traced_run out o workload s
     else begin
       Outcome.set_pass out (s.measure ~seconds:o.seconds ~spans:None);
       Outcome.set out "mem_mb" (s.finish ())
     end
   with Kv_load.Abort msg -> Outcome.fail out msg);
  let ms = if o.trace then Decl.per_layer else Decl.end_to_end in
  if out.failed = 0 then check_complete out ~workload ms;
  print_metrics out ms;
  Printf.printf "  checked %d, failed %d\n" out.attempted out.failed;
  List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) (List.rev out.problems);
  (* The result line; with one workload it is the last line printed. *)
  print_endline (result_json out ms);
  (workload, out, ms)

let () =
  let o = parse_args () in
  Nbhash_telemetry.Metrics_server.ignore_sigpipe ();
  (* Exit through at_exit, which stops a running KV server. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  let results = List.map (run_workload o) o.workloads in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc "{\"meta\":%s,\"runs\":[%s]}\n" (meta_json o)
            (String.concat ","
               (List.map
                  (fun (w, out, ms) ->
                    Printf.sprintf "{\"workload\":%s,\"result\":%s}" (json_string w)
                      (result_json out ms))
                  results))))
    o.out;
  exit
    (if List.exists (fun (_, (out : Outcome.t), _) -> out.failed > 0) results
     then 1
     else 0)
