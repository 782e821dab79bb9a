(* The KV service end to end: port-0 binding and the EADDRINUSE error
   path, STAT self-description, graceful drain (no acknowledged write
   lost, migrations finished, watchdog clean), and a small in-process
   open-loop load run whose report renders as valid bench-v2 JSON. *)

module P = Nbhash_server.Protocol
module Server = Nbhash_server.Server
module Backend = Nbhash_server.Backend
module Loadgen = Nbhash_server.Loadgen
module V = Nbhash.Hashset_intf
module J = Nbhash_util.Json

let client port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

let rpc fd req =
  P.write_request fd req;
  match P.read_response fd with
  | Result.Ok r -> r
  | Result.Error msg -> Alcotest.fail ("rpc: " ^ msg)

(* --- binding --- *)

let test_bind () =
  (* Port 0 binds a free port and reports the real one. *)
  let server =
    Server.start ~config:{ Server.default_config with workers = 1 } ()
  in
  Alcotest.(check bool) "picked a real port" true (Server.port server > 0);
  (* The port is genuinely bound: a second bind on it fails with the
     one-line Bind_error, not a raw Unix error. *)
  (match
     Nbhash_telemetry.Metrics_server.listen_tcp ~addr:"127.0.0.1"
       ~port:(Server.port server) ()
   with
  | exception Nbhash_telemetry.Metrics_server.Bind_error msg ->
    Alcotest.(check bool) "message names EADDRINUSE" true
      (String.length msg >= 12
      && String.sub msg (String.length msg - 12) 12 = "(EADDRINUSE)")
  | _fd, _port -> Alcotest.fail "double bind succeeded");
  Server.stop server

(* --- STAT --- *)

let test_stat () =
  let server =
    Server.start
      ~config:
        {
          Server.default_config with
          backend = Backend.Waitfree;
          shards = 3;
          workers = 1;
        }
      ()
  in
  let fd = client (Server.port server) in
  (match rpc fd P.Stat with
  | P.Value body -> (
    match J.parse body with
    | Result.Error msg -> Alcotest.fail ("STAT is not JSON: " ^ msg)
    | Result.Ok doc ->
      let num name =
        match Option.bind (J.member name doc) J.to_num with
        | Some n -> int_of_float n
        | None -> Alcotest.fail ("STAT lacks " ^ name)
      in
      (match J.member "backend" doc with
      | Some (J.Str s) -> Alcotest.(check string) "backend" "waitfree" s
      | _ -> Alcotest.fail "STAT lacks backend");
      Alcotest.(check int) "shards" 3 (num "shards");
      Alcotest.(check int) "workers" 1 (num "workers");
      Alcotest.(check int) "cardinal" 0 (num "cardinal"))
  | other ->
    Alcotest.fail
      (match other with
      | P.Err m -> "STAT answered ERR: " ^ m
      | _ -> "STAT answered a non-VALUE response"));
  ignore (rpc fd (P.Put (5, "x")));
  (match rpc fd P.Stat with
  | P.Value body ->
    Alcotest.(check bool) "cardinal counts the put" true
      (match
         Option.bind (Result.to_option (J.parse body)) (fun d ->
             Option.bind (J.member "cardinal" d) J.to_num)
       with
      | Some 1. -> true
      | _ -> false)
  | _ -> Alcotest.fail "second STAT failed");
  Unix.close fd;
  Server.stop server

(* --- graceful drain --- *)

(* Acked writes before a drain are all readable after it; the drain
   finishes any open migration window (progress 1.0 on every shard)
   and leaves nothing pending for the watchdog to flag. *)
let test_drain ~kind () =
  let wd = Nbhash_telemetry.Watchdog.global ~max_age_ns:(30 * 1_000_000_000) () in
  let server =
    Server.start
      ~config:
        {
          Server.default_config with
          backend = kind;
          shards = 2;
          workers = 2;
        }
      ()
  in
  let port = Server.port server in
  let keys = List.init 300 (fun i -> i * 7) in
  let fd = client port in
  List.iter
    (fun k ->
      match rpc fd (P.Put (k, "v" ^ string_of_int k)) with
      | P.Ok -> ()
      | _ -> Alcotest.fail "put not acked")
    keys;
  (* Open a migration window on both shards so the drain has real
     work: the acceptance criterion is progress 1.0 afterwards. *)
  let th = Backend.register (Server.backend server) in
  Backend.force_resize th ~shard:0 ~grow:true;
  Backend.force_resize th ~shard:1 ~grow:true;
  Backend.unregister th;
  Alcotest.(check bool) "watchdog quiet under load" true
    (Nbhash_telemetry.Watchdog.poll wd = []);
  (* Drain over the wire: OK comes back only after migrations are
     done, and the workers shut down afterwards. *)
  (match rpc fd P.Drain with
  | P.Ok -> ()
  | _ -> Alcotest.fail "drain not acked");
  Unix.close fd;
  Server.wait server;
  let backend = Server.backend server in
  for shard = 0 to Backend.shard_count backend - 1 do
    let v = Backend.inspect_shard backend shard in
    Alcotest.(check bool)
      (Printf.sprintf "shard %d window closed" shard)
      false v.V.migrating;
    Alcotest.(check (float 0.0))
      (Printf.sprintf "shard %d progress" shard)
      1.0 v.V.migration_progress
  done;
  (* Every acked write survived the drain. *)
  let h = Backend.register backend in
  List.iter
    (fun k ->
      match Backend.get h k with
      | Some v when v = "v" ^ string_of_int k -> ()
      | Some _ -> Alcotest.fail (Printf.sprintf "key %d: wrong value" k)
      | None -> Alcotest.fail (Printf.sprintf "acked key %d lost by drain" k))
    keys;
  Backend.unregister h;
  Backend.check_invariants backend;
  Alcotest.(check bool) "watchdog clean after drain" true
    (Nbhash_telemetry.Watchdog.poll wd = [])

(* A new connection arriving after the drain is refused or dropped,
   never served. *)
let test_drain_refuses_new_connections () =
  let server =
    Server.start ~config:{ Server.default_config with workers = 2 } ()
  in
  let port = Server.port server in
  let fd = client port in
  (match rpc fd P.Drain with
  | P.Ok -> ()
  | _ -> Alcotest.fail "drain not acked");
  Unix.close fd;
  Server.wait server;
  (match client port with
  | fd ->
    (* The connect itself may be absorbed by the dead listener's
       backlog; the next read must then see EOF, never a served
       response. *)
    (try P.write_request fd P.Ping with Unix.Unix_error _ -> ());
    (match P.read_response fd with
    | Result.Error _ -> ()
    | Result.Ok _ -> Alcotest.fail "drained server served a new connection");
    Unix.close fd
  | exception Unix.Unix_error _ -> ())

(* --- robustness: SIGPIPE, hostname addresses, idle-client stop --- *)

(* A client that disconnects without reading its responses makes the
   server write into a reset connection. With SIGPIPE at its default
   disposition that kills the whole process; Server.start must ignore
   it so the write surfaces as EPIPE and only that connection dies. *)
let test_sigpipe_survival () =
  (* Undo any ignore inherited from earlier tests so this test proves
     Server.start installs it. *)
  (try ignore (Sys.signal Sys.sigpipe Sys.Signal_default)
   with Invalid_argument _ | Sys_error _ -> ());
  let server =
    Server.start ~config:{ Server.default_config with workers = 2 } ()
  in
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Alcotest.(check bool) "start ignores SIGPIPE" true
    (prev = Sys.Signal_ignore);
  let port = Server.port server in
  for _ = 1 to 5 do
    let fd = client port in
    for i = 1 to 64 do
      P.write_request fd (P.Get i)
    done;
    (* Close with all responses unread: the kernel answers further
       server writes with RST, so they fail instead of blocking. *)
    Unix.close fd
  done;
  Unix.sleepf 0.05;
  (* The process survived and still serves. *)
  let fd = client port in
  (match rpc fd P.Ping with
  | P.Ok -> ()
  | _ -> Alcotest.fail "server did not answer after aborted clients");
  Unix.close fd;
  Server.stop server

(* addr may be a hostname, not just a dotted quad: binding resolves it
   via getaddrinfo, and stop's accept-wake fallback must use the
   resolved address instead of raising Failure mid-drain. *)
let test_hostname_addr () =
  match Nbhash_telemetry.Metrics_server.resolve_inet "localhost" with
  | exception Failure _ -> () (* no name resolution here; nothing to test *)
  | _inet ->
    let server =
      Server.start
        ~config:
          { Server.default_config with addr = "localhost"; workers = 1 }
        ()
    in
    let fd = client (Server.port server) in
    (match rpc fd P.Ping with
    | P.Ok -> ()
    | _ -> Alcotest.fail "ping on hostname-bound server");
    Unix.close fd;
    Server.stop server

(* stop must bring down a worker parked in read_frame on an idle
   connection (shutdown-for-read wake), not wait for the client. *)
let test_stop_unblocks_idle_connection () =
  let server =
    Server.start ~config:{ Server.default_config with workers = 1 } ()
  in
  let fd = client (Server.port server) in
  (match rpc fd P.Ping with
  | P.Ok -> ()
  | _ -> Alcotest.fail "ping");
  (* The only worker is now parked reading this idle connection. *)
  Server.stop server;
  (match P.read_response fd with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "served a response after stop");
  Unix.close fd

(* --- staged latency attribution --- *)

module Slowlog = Nbhash_server.Slowlog
module Stages = Nbhash_server.Stages

(* Stage attribution needs a recording ambient probe; scope it so the
   rest of the binary keeps the noop default. *)
let with_recording f =
  Fun.protect
    ~finally:(fun () ->
      Nbhash_telemetry.Global.install Nbhash_telemetry.Probe.noop)
    (fun () ->
      Nbhash_telemetry.Global.install (Nbhash_telemetry.Probe.recording ());
      f ())

(* A capture lands after its reply is written, so a client can observe
   its own response before the worker has noted the request; poll
   briefly instead of asserting on the instant count. *)
let wait_captured slow n =
  let deadline = Unix.gettimeofday () +. 5. in
  while Slowlog.captured slow < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done

(* Adjacent stages share boundary timestamps, so the stage sum equals
   the total exactly — not within tolerance. A zero threshold captures
   every attributed request, which makes the slow log the test's
   window into per-request stage values. *)
let test_staged_attribution () =
  with_recording (fun () ->
      let server =
        Server.start
          ~config:
            {
              Server.default_config with
              workers = 1;
              slow_threshold_ns = Some 0;
            }
          ()
      in
      let fd = client (Server.port server) in
      (match rpc fd (P.Put (1, "v")) with
      | P.Ok -> ()
      | _ -> Alcotest.fail "put");
      (match rpc fd (P.Get 1) with
      | P.Value "v" -> ()
      | _ -> Alcotest.fail "get");
      (match rpc fd (P.Del 1) with
      | P.Ok -> ()
      | _ -> Alcotest.fail "del");
      Unix.close fd;
      let slow = Server.slowlog server in
      wait_captured slow 3;
      let entries = Slowlog.entries slow in
      Alcotest.(check bool) "threshold 0 captured the requests" true
        (List.length entries >= 3);
      List.iter
        (fun (e : Slowlog.entry) ->
          Alcotest.(check int)
            (Printf.sprintf "#%d %s: read+decode+shard+write = total" e.seq
               e.op)
            e.total_ns
            (e.read_ns + e.decode_ns + e.shard_ns + e.write_ns);
          Alcotest.(check bool)
            (Printf.sprintf "#%d help within the shard stage" e.seq)
            true
            (e.help_ns >= 0 && e.help_ns <= e.shard_ns);
          Alcotest.(check bool)
            (Printf.sprintf "#%d positive total" e.seq)
            true (e.total_ns > 0))
        entries;
      let ops = List.map (fun (e : Slowlog.entry) -> e.op) entries in
      List.iter
        (fun op ->
          Alcotest.(check bool) (op ^ " captured") true (List.mem op ops))
        [ "get"; "put"; "del" ];
      (* The JSON the /slow.json route serves parses and has the
         envelope the CLI renders. *)
      (match J.parse (Slowlog.to_json slow) with
      | Result.Error msg -> Alcotest.fail ("slow JSON unparsable: " ^ msg)
      | Result.Ok doc ->
        Alcotest.(check (option (list string)))
          "slow JSON keys"
          (Some [ "threshold_ns"; "captured"; "capacity"; "entries" ])
          (J.keys doc);
        match Option.bind (J.member "entries" doc) J.to_list with
        | Some (e :: _) ->
          List.iter
            (fun k ->
              if J.member k e = None then
                Alcotest.failf "slow entry lacks %s" k)
            [
              "seq"; "op"; "key"; "shard"; "total_ns"; "read_ns"; "decode_ns";
              "shard_ns"; "help_ns"; "write_ns"; "threshold_ns"; "view";
            ]
        | _ -> Alcotest.fail "slow JSON has no entries");
      Server.stop server)

(* Stall injection: one shard, a sweep chunk big enough to migrate the
   whole table in one claim, a forced resize over the wire — the next
   request does the entire migration inside its shard stage, and the
   capture attributes that time to help_ns. *)
let test_stall_capture () =
  with_recording (fun () ->
      let policy =
        {
          Backend.default_policy with
          migration =
            { Nbhash.Policy.default_migration with chunk = 65536 };
        }
      in
      let server =
        Server.start
          ~config:
            {
              Server.default_config with
              shards = 1;
              workers = 1;
              policy = Some policy;
              slow_threshold_ns = Some 0;
            }
          ()
      in
      let fd = client (Server.port server) in
      for k = 0 to 8191 do
        match rpc fd (P.Put (k, "v")) with
        | P.Ok -> ()
        | _ -> Alcotest.fail "prefill put"
      done;
      (match rpc fd (P.Force_resize 0) with
      | P.Ok -> ()
      | _ -> Alcotest.fail "force resize");
      (match rpc fd (P.Put (100_000, "w")) with
      | P.Ok -> ()
      | _ -> Alcotest.fail "stalled put");
      Unix.close fd;
      wait_captured (Server.slowlog server) 8194;
      let entries = Slowlog.entries (Server.slowlog server) in
      let helped =
        List.filter (fun (e : Slowlog.entry) -> e.help_ns > 0) entries
      in
      Alcotest.(check bool) "some capture carries helping time" true
        (helped <> []);
      (* The most-helped request attributes at least half its overage
         (threshold 0: its whole duration) to the migration it drove. *)
      let worst =
        List.fold_left
          (fun (a : Slowlog.entry) (e : Slowlog.entry) ->
            if e.help_ns > a.help_ns then e else a)
          (List.hd helped) helped
      in
      Alcotest.(check bool)
        (Printf.sprintf
           "help dominates the stall (help %dns, total %dns, threshold %dns)"
           worst.help_ns worst.total_ns worst.threshold_ns)
        true
        (2 * worst.help_ns >= worst.total_ns - worst.threshold_ns);
      Alcotest.(check bool) "the capture names the owning shard" true
        (worst.shard = 0 && worst.view <> None);
      Server.stop server;
      Backend.check_invariants (Server.backend server))

(* With the probe disabled, the staged marks are branches on a cached
   flag — no clock reads, no allocation. *)
let test_staged_marks_disabled_no_alloc () =
  Nbhash_telemetry.Trace.uninstall ();
  Nbhash_telemetry.Global.install Nbhash_telemetry.Probe.noop;
  let c = Stages.make () in
  let mark () =
    Stages.frame_start c;
    Stages.read_done c ~t_first:0;
    Stages.decode_done c;
    Stages.shard_start c;
    Stages.shard_done c;
    Stages.finish c ~op:Stages.Get
  in
  for _ = 1 to 1_000 do
    mark ()
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    mark ()
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256. then
    Alcotest.failf "disabled staged marks allocated %.0f minor words" delta

(* A capture runs on the worker before it reads the next frame, so its
   cost must be bounded by the tail it keeps, not by the ring it reads:
   over a flight recorder sized like `serve`'s (64 lanes x 2^14 slots),
   filling three lanes from 1,000 records each to wrapped must not
   change what a capture allocates. The capture's shard view comes
   from a map caught mid-migration, the inspector's costliest state. *)
module Trace = Nbhash_telemetry.Trace

let test_capture_alloc_bounded () =
  let m =
    Nbhash.Hashmap.create
      ~policy:
        {
          (Nbhash.Policy.lazy_migration Nbhash.Policy.default) with
          Nbhash.Policy.enabled = false;
          init_buckets = 1024;
        }
      ()
  in
  let h = Nbhash.Hashmap.register m in
  for k = 0 to 4095 do
    ignore (Nbhash.Hashmap.put h k "v")
  done;
  Nbhash.Hashmap.force_resize h ~grow:true;
  let slow =
    Slowlog.create ~threshold_ns:0
      ~inspect:(fun _ -> Some (Nbhash.Hashmap.inspect m))
      ()
  in
  let capacity = 1 lsl 14 in
  let tr = Trace.create ~lanes:64 ~capacity () in
  Trace.install tr;
  Fun.protect ~finally:Trace.uninstall (fun () ->
      (* Three writer domains, alive across both fills so that they
         keep their lanes. *)
      let filled = Atomic.make 0 and go = Atomic.make false in
      let fill_to ~target =
        while Atomic.get filled < target do
          Unix.sleepf 0.001
        done
      in
      let ds =
        List.init 3 (fun _ ->
            Domain.spawn (fun () ->
                for i = 1 to 1_000 do
                  Trace.instant Nbhash_telemetry.Event.Help_op i
                done;
                Atomic.incr filled;
                while not (Atomic.get go) do
                  Unix.sleepf 0.001
                done;
                for i = 1 to 2 * capacity do
                  Trace.instant Nbhash_telemetry.Event.Help_op i
                done;
                Atomic.incr filled))
      in
      let capture_words () =
        let before = Gc.minor_words () in
        Slowlog.note slow ~op:"get" ~key:1 ~shard:0 ~total_ns:1 ~read_ns:0
          ~decode_ns:0 ~shard_ns:1 ~help_ns:0 ~write_ns:0;
        Gc.minor_words () -. before
      in
      fill_to ~target:3;
      ignore (capture_words ());
      let partial = capture_words () in
      Atomic.set go true;
      fill_to ~target:6;
      List.iter Domain.join ds;
      let full = capture_words () in
      Alcotest.(check int) "every note captured" 3 (Slowlog.captured slow);
      if full >= 50_000. then
        Alcotest.failf "a capture over full rings allocated %.0f minor words"
          full;
      if full > partial +. 1_000. then
        Alcotest.failf
          "capture allocation grew with the rings: %.0f -> %.0f minor words"
          partial full;
      (* The stored records render to the text dump_tail prints. *)
      let rendered =
        match Slowlog.entries slow |> List.rev with
        | { Slowlog.trace_tail = Some recs; _ } :: _ ->
          Format.asprintf "%a" Trace.pp_records recs
        | _ -> Alcotest.fail "capture has no trace tail"
      in
      Alcotest.(check string) "tail renders as dump_tail"
        (Format.asprintf "%a" (Trace.dump_tail ~n:Slowlog.tail_records) tr)
        rendered)

(* The shipped `serve` sizes its flight recorder to its domains: the
   main domain, two workers and the metrics domain get one lane each
   of four, so no two writers share a lane and no record tears. Run as
   a child process, the way the benchmark runs it. *)
let serve_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/nbhash_cli.exe"

(* `serve` announces "... on ADDR:PORT" for KV, then metrics. *)
let read_ports fd =
  let ic = Unix.in_channel_of_descr fd in
  let port_of line = int_of_string (List.hd (List.rev (String.split_on_char ':' line))) in
  let kv = port_of (input_line ic) in
  let metrics_line = input_line ic in
  let metrics =
    port_of (String.sub metrics_line 0 (String.rindex metrics_line '/'))
  in
  (kv, metrics)

let reap_within pid seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.01;
      go ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      false
    | _, status -> status = Unix.WEXITED 0
  in
  go ()

let test_serve_lane_ownership () =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process serve_exe [| serve_exe; "serve" |] Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let alive = ref true in
  Fun.protect
    ~finally:(fun () ->
      if !alive then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
      end;
      Unix.close r)
    (fun () ->
      let port, metrics_port = read_ports r in
      let conns = [ client port; client port ] in
      for k = 1 to 200 do
        List.iteri
          (fun i fd ->
            match rpc fd (P.Put ((2 * k) + i, "v")) with
            | P.Ok -> ()
            | _ -> Alcotest.fail "put")
          conns
      done;
      let get path =
        match Nbhash_telemetry.Metrics_server.http_get ~port:metrics_port path with
        | Ok (200, body) -> body
        | Ok (code, _) -> Alcotest.failf "%s answered %d" path code
        | Error msg -> Alcotest.failf "%s: %s" path msg
      in
      let metrics = get "/metrics" in
      let sample name =
        match
          List.find_opt
            (fun l -> String.starts_with ~prefix:(name ^ " ") l)
            (String.split_on_char '\n' metrics)
        with
        | Some l -> float_of_string (List.nth (String.split_on_char ' ' l) 1)
        | None -> Alcotest.failf "/metrics lacks %s" name
      in
      let recorder = sample "nbhash_trace_recorder_bytes" in
      let lanes = int_of_float recorder / ((1 lsl 14) * 32) in
      Alcotest.(check int) "one lane per domain: main, 2 workers, metrics" 4
        lanes;
      Alcotest.(check (float 0.)) "no torn records" 0.
        (sample {|nbhash_trace_dropped_total{reason="torn"}|});
      let events =
        match J.parse (get "/trace.json") with
        | Result.Ok doc -> (
          match Option.bind (J.member "traceEvents" doc) J.to_list with
          | Some l -> l
          | None -> Alcotest.fail "/trace.json has no traceEvents")
        | Result.Error msg -> Alcotest.fail ("/trace.json: " ^ msg)
      in
      let domains =
        List.sort_uniq compare
          (List.filter_map
             (fun e -> Option.map int_of_float (Option.bind (J.member "tid" e) J.to_num))
             events)
      in
      Alcotest.(check bool) "both workers traced" true (List.length domains >= 2);
      Alcotest.(check int) "domain ids distinct modulo the lane count"
        (List.length domains)
        (List.length (List.sort_uniq compare (List.map (fun d -> d mod lanes) domains)));
      (match rpc (List.hd conns) P.Drain with
      | P.Ok -> ()
      | _ -> Alcotest.fail "drain");
      List.iter Unix.close conns;
      alive := false;
      Alcotest.(check bool) "serve exits cleanly after DRAIN" true
        (reap_within pid 10.))

(* --- load generator --- *)

let test_loadgen () =
  let server =
    Server.start
      ~config:{ Server.default_config with shards = 2; workers = 2 }
      ()
  in
  let report =
    Loadgen.run
      ~config:
        {
          Loadgen.default_config with
          port = Server.port server;
          conns = 2;
          rate = 4000.;
          duration_s = 0.5;
          key_range = 1 lsl 10;
          dist = Nbhash_workload.Keystream.Zipf 1.1;
        }
      ()
  in
  Alcotest.(check bool) "sent some requests" true (report.Loadgen.sent > 100);
  Alcotest.(check int) "no errors" 0 report.Loadgen.errors;
  Alcotest.(check int) "no aborted connections" 0 report.Loadgen.aborted;
  Alcotest.(check bool) "percentiles ordered" true
    (report.Loadgen.p50_ns <= report.Loadgen.p99_ns
    && report.Loadgen.p99_ns <= report.Loadgen.p999_ns);
  Alcotest.(check bool) "impl from STAT" true
    (report.Loadgen.impl = "server/lockfreex2");
  (* Every connection negotiated revision 2 against our own server,
     and every reply echoed the right id. *)
  Alcotest.(check int) "all connections on rev 2" 2 report.Loadgen.v2_conns;
  Alcotest.(check int) "no id mismatches" 0 report.Loadgen.id_mismatches;
  (* Per-opcode splits cover the traffic. *)
  Alcotest.(check (list string))
    "per-op rows" [ "get"; "put"; "del" ]
    (List.map (fun (o : Loadgen.op_stats) -> o.Loadgen.op)
       report.Loadgen.per_op);
  Alcotest.(check int) "per-op sent sums to sent" report.Loadgen.sent
    (List.fold_left
       (fun acc (o : Loadgen.op_stats) -> acc + o.Loadgen.op_sent)
       0 report.Loadgen.per_op);
  List.iter
    (fun (o : Loadgen.op_stats) ->
      if o.Loadgen.op_sent > 0 then
        Alcotest.(check bool)
          (o.Loadgen.op ^ " percentiles ordered") true
          (o.Loadgen.op_p50_ns <= o.Loadgen.op_p99_ns
          && o.Loadgen.op_p99_ns <= o.Loadgen.op_p999_ns))
    report.Loadgen.per_op;
  (* The bench-v2 rendering parses and carries the identity fields
     bench_compare keys on, plus a positive throughput. *)
  (match J.parse (Loadgen.to_bench_json report) with
  | Result.Error msg -> Alcotest.fail ("bench JSON unparsable: " ^ msg)
  | Result.Ok doc ->
    (match J.member "schema" doc with
    | Some (J.Str "nbhash-bench-v2") -> ()
    | _ -> Alcotest.fail "wrong schema");
    (match J.member "mode" doc with
    | Some (J.Str "load") -> ()
    | _ -> Alcotest.fail "wrong mode");
    let result =
      match Option.bind (J.member "results" doc) J.to_list with
      | Some [ r ] -> r
      | _ -> Alcotest.fail "expected exactly one result"
    in
    (match Option.bind (J.member "ops_per_usec" result) J.to_num with
    | Some ops -> Alcotest.(check bool) "positive throughput" true (ops > 0.)
    | None -> Alcotest.fail "no ops_per_usec");
    List.iter
      (fun name ->
        match
          Option.bind (J.member "params" result) (fun p -> J.member name p)
        with
        | Some _ -> ()
        | None -> Alcotest.fail ("params lack " ^ name))
      [
        "workers"; "key_range"; "lookup_ratio"; "duration"; "p99_ns";
        "aborted"; "proto"; "v2_conns"; "id_mismatches"; "get_p999_ns";
        "put_p999_ns"; "del_p999_ns"; "get_sent";
      ]);
  Server.stop server;
  Backend.check_invariants (Server.backend server)

let suite =
  [
    ( "kv server",
      [
        Alcotest.test_case "port 0 binds and reports; EADDRINUSE is clean"
          `Quick test_bind;
        Alcotest.test_case "stat describes the server" `Quick test_stat;
        Alcotest.test_case "graceful drain (lockfree)" `Quick
          (test_drain ~kind:Backend.Lockfree);
        Alcotest.test_case "graceful drain (waitfree)" `Quick
          (test_drain ~kind:Backend.Waitfree);
        Alcotest.test_case "drained server refuses new connections" `Quick
          test_drain_refuses_new_connections;
        Alcotest.test_case "SIGPIPE from aborted clients is survived" `Quick
          test_sigpipe_survival;
        Alcotest.test_case "hostname addr binds and drains" `Quick
          test_hostname_addr;
        Alcotest.test_case "stop unblocks an idle connection" `Quick
          test_stop_unblocks_idle_connection;
        Alcotest.test_case "open-loop loadgen and bench-v2 report" `Quick
          test_loadgen;
        Alcotest.test_case "staged spans: sum equals total, captures land"
          `Quick test_staged_attribution;
        Alcotest.test_case "forced stall attributed to help time" `Quick
          test_stall_capture;
        Alcotest.test_case "disabled staged marks allocate nothing" `Quick
          test_staged_marks_disabled_no_alloc;
        Alcotest.test_case "capture allocation bounded by its tail" `Quick
          test_capture_alloc_bounded;
        Alcotest.test_case "serve gives each domain its own trace lane" `Quick
          test_serve_lane_ownership;
      ] );
  ]
