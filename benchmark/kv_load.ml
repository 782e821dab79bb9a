(* The two KV workloads, against the shipped `nbhash_cli serve` run as
   a child process with its default flags (lock-free backend, 2 shards,
   2 workers, metrics endpoint, rolling slow-request capture).

   One client domain drives 2 protocol-v2 connections; connection c
   owns the keys k < 2^16 with k mod 2 = c and keeps a model of them,
   so every reply is checked exactly: GET against the modelled value,
   PUT and DEL against the modelled presence, and every reply's echoed
   request id against the request's. Values are 32 bytes encoding the
   key and a version. Requests on one connection are served in order
   and no other connection touches its keys, so the model at send time
   is the state the server sees.

   Set-up boots the server, negotiates v2 and prefills 75% of the keys
   (the steady state of the mix). The mix is 80% GET, 15% PUT, 5% DEL
   over uniform keys, from per-connection streams generated from the
   seed.

   kv-open-loop sends on a fixed schedule, 2,000 then 8,000 req/s
   (half on each connection), pipelining when a reply is late, and
   times each request from when it was due, so a stall counts against
   every request queued behind it. kv-closed-loop keeps exactly one
   request outstanding per connection. Each rate, or the closed loop,
   runs after a 1 s warm-up and is cut into 0.5 s windows, each at
   least 1,000 requests, so a window's p99 has 10 samples beyond it.
   Latency samples are kept exactly. As for the tables, other tenants'
   load only slows a window down, so a figure is the better decile over
   windows (Quant.best). *)

module P = Nbhash_server.Protocol
module Clock = Nbhash_util.Clock
module X = Nbhash_util.Xoshiro
module Samples = Quant.Samples

let owned = 1 lsl 15 (* keys per connection: 2j + c for j < owned *)
let stream_len = 1 lsl 19
let rates = [ 2000.; 8000. ]
let window_ns = 500_000_000
let warmup_ns = 1_000_000_000
let value_of k v = Printf.sprintf "%016x%016x" k v

exception Abort of string

let sp_request = Spans.intern "kv.request"
let sp_lag = Spans.intern "client.lag"
let sp_send = Spans.intern "client.send"
let sp_wait = Spans.intern "server.wait"

(* --- the server process --- *)

type server = {
  pid : int;
  port : int;
  metrics_port : int;
  stdout : Unix.file_descr;
}

let live : int list ref = ref []

(* A run that dies half-way must not leave a server behind. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let rec select_retry r timeout =
  try
    let ready, _, _ = Unix.select r [] [] timeout in
    ready
  with Unix.Unix_error (Unix.EINTR, _, _) -> select_retry r timeout

(* The port after the last ':' of a banner line. *)
let port_of line =
  let i = String.rindex line ':' + 1 in
  let j = ref i in
  while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do
    incr j
  done;
  int_of_string (String.sub line i (!j - i))

(* serve prints "serving kv ... on ADDR:PORT" and then "serving
   metrics on http://ADDR:PORT/metrics" once both listeners are up. *)
let read_banner fd =
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. 10. in
  let lines () = String.split_on_char '\n' (Buffer.contents buf) in
  while List.length (lines ()) < 3 do
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then raise (Abort "server did not announce its ports");
    if select_retry [ fd ] left <> [] then begin
      let n = Unix.read fd chunk 0 (Bytes.length chunk) in
      if n = 0 then raise (Abort "server exited during start-up");
      Buffer.add_subbytes buf chunk 0 n
    end
  done;
  match lines () with
  | kv :: metrics :: _ -> (port_of kv, port_of metrics)
  | _ -> assert false

let spawn exe =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "serve" |] Unix.stdin w Unix.stderr in
  Unix.close w;
  live := pid :: !live;
  let port, metrics_port = read_banner r in
  { pid; port; metrics_port; stdout = r }

(* Wait for the server to exit on its own (after DRAIN), killing it
   after 10 s; [true] iff it exited cleanly. *)
let reap s =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ ->
      Unix.kill s.pid Sys.sigkill;
      ignore (Unix.waitpid [] s.pid);
      false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
  in
  let clean = wait () in
  live := List.filter (fun p -> p <> s.pid) !live;
  Unix.close s.stdout;
  clean

(* --- connections and the client-side model --- *)

type req = {
  id : int;
  due : int;
  sent : int;
  sent_done : int;
  expect : P.response;
  get : bool;
  window : int;  (* -1 during warm-up *)
}

type conn = {
  fd : Unix.file_descr;
  model : int array;  (* version of owned key j; -1 when absent *)
  mutable version : int;
  mutable next_id : int;
  pending : req Queue.t;
  ops : int array;  (* key lsl 2 lor (0 get | 1 put | 2 del) *)
  mutable pos : int;
}

(* What a measured phase records; [None] during warm-up. *)
type phase = {
  lat : Samples.t array;  (* per window, due time to reply *)
  completed : int array;  (* per window *)
  rtt : Samples.t;  (* send completion to reply *)
  lag : Samples.t array;  (* per window, due time to send start *)
  get_lat : Samples.t;
  spans : Spans.buf option;
  mutable first_due : int;
  mutable last_reply : int;
}

(* [per_window] bounds the requests a window can hold; lag is kept only
   for an open loop. *)
let new_phase ~duration_ns ~per_window ~open_ ~spans =
  let windows = duration_ns / window_ns in
  {
    lat = Array.init windows (fun _ -> Samples.create per_window);
    completed = Array.make windows 0;
    rtt = Samples.create (per_window * windows);
    lag = Array.init windows (fun _ -> Samples.create (if open_ then per_window else 0));
    get_lat = Samples.create (per_window * windows);
    spans;
    first_due = 0;
    last_reply = 0;
  }

let connect port c ~ops =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  P.write_request fd P.Hello;
  (match P.read_response fd with
  | Ok (P.Value ack) when ack = P.hello_ack -> ()
  | _ -> raise (Abort "server refused protocol revision 2"));
  {
    fd;
    model = Array.make owned (-1);
    version = 0;
    next_id = c lsl 28;
    pending = Queue.create ();
    ops;
    pos = 0;
  }

let send conn ~due ~window =
  let op = conn.ops.(conn.pos) in
  conn.pos <- (conn.pos + 1) land (stream_len - 1);
  let k = op lsr 2 in
  let j = k lsr 1 in
  let req, expect =
    match op land 3 with
    | 0 ->
      ( P.Get k,
        if conn.model.(j) >= 0 then P.Value (value_of k conn.model.(j))
        else P.Not_found )
    | 1 ->
      let v = conn.version in
      conn.version <- v + 1;
      conn.model.(j) <- v;
      (P.Put (k, value_of k v), P.Ok)
    | _ ->
      let e = if conn.model.(j) >= 0 then P.Ok else P.Not_found in
      conn.model.(j) <- -1;
      (P.Del k, e)
  in
  let id = conn.next_id in
  conn.next_id <- (id + 1) land 0xFFFFFFFF;
  let sent = Clock.now_ns () in
  (try P.write_request_v2 conn.fd ~id req
   with Unix.Unix_error (e, _, _) ->
     raise (Abort ("send failed: " ^ Unix.error_message e)));
  Queue.push
    {
      id;
      due;
      sent;
      sent_done = Clock.now_ns ();
      expect;
      get = op land 3 = 0;
      window;
    }
    conn.pending

let receive out conn (phase : phase option) =
  let reply =
    try P.read_response_v2 conn.fd
    with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  let now = Clock.now_ns () in
  match (reply, Queue.take_opt conn.pending) with
  | Error msg, _ -> raise (Abort ("connection lost: " ^ msg))
  | Ok _, None -> raise (Abort "reply to no request")
  | Ok (rid, resp), Some r -> (
    Outcome.check out
      (rid = r.id && resp = r.expect)
      (if rid <> r.id then Printf.sprintf "reply id %d to request %d" rid r.id
       else "wrong reply");
    match phase with
    | Some ph when r.window >= 0 && r.window < Array.length ph.lat ->
      let lat = now - r.due in
      Samples.add ph.lat.(r.window) lat;
      ph.completed.(r.window) <- ph.completed.(r.window) + 1;
      ph.last_reply <- now;
      Samples.add ph.rtt (now - r.sent_done);
      Samples.add ph.lag.(r.window) (r.sent - r.due);
      if r.get then Samples.add ph.get_lat lat;
      Option.iter
        (fun b ->
          let parent = Spans.record b ~name:sp_request ~start:r.due ~stop:now ~rid:r.id () in
          if parent >= 0 then begin
            ignore (Spans.record b ~name:sp_lag ~start:r.due ~stop:r.sent ~parent ~rid:r.id ());
            ignore (Spans.record b ~name:sp_send ~start:r.sent ~stop:r.sent_done ~parent ~rid:r.id ());
            ignore (Spans.record b ~name:sp_wait ~start:r.sent_done ~stop:now ~parent ~rid:r.id ())
          end)
        ph.spans
    | _ -> ())

let waiting conns =
  List.filter_map
    (fun c -> if Queue.is_empty c.pending then None else Some c.fd)
    (Array.to_list conns)

let receive_ready out conns fds phase =
  List.iter
    (fun fd ->
      Array.iter (fun c -> if c.fd = fd then receive out c phase) conns)
    fds

(* Sends on schedule: connection c's i-th request is due at
   t0 + c * interval / 2 + i * interval. *)
let open_loop out conns ~rate ~duration_ns phase =
  let interval = int_of_float (float (Array.length conns) *. 1e9 /. rate) in
  let t0 = Clock.now_ns () + 1_000_000 in
  let t_end = t0 + duration_ns in
  Option.iter (fun ph -> ph.first_due <- t0) phase;
  let due = Array.mapi (fun c _ -> t0 + (c * interval / 2)) conns in
  let give_up = t_end + 5_000_000_000 in
  let finished = ref false in
  while not !finished do
    let now = Clock.now_ns () in
    Array.iteri
      (fun c conn ->
        while due.(c) <= now && due.(c) < t_end do
          send conn ~due:due.(c)
            ~window:(if phase = None then -1 else (due.(c) - t0) / window_ns);
          due.(c) <- due.(c) + interval
        done)
      conns;
    let next = Array.fold_left min max_int due in
    let sending = next < t_end in
    let fds = waiting conns in
    if (not sending) && fds = [] then finished := true
    else begin
      let now = Clock.now_ns () in
      if now > give_up then raise (Abort "replies overdue by 5 s");
      let timeout =
        if sending then float (max 0 (next - now)) /. 1e9 else 0.1
      in
      receive_ready out conns (select_retry fds timeout) phase
    end
  done

(* Exactly one request outstanding per connection; a request is due
   when it is sent. *)
let closed_loop out conns ~duration_ns phase =
  let t0 = Clock.now_ns () in
  let t_end = t0 + duration_ns in
  let window now = if phase = None then -1 else (now - t0) / window_ns in
  Array.iter (fun c -> send c ~due:t0 ~window:(window t0)) conns;
  let finished = ref false in
  while not !finished do
    match waiting conns with
    | [] -> finished := true
    | fds ->
      let ready = select_retry fds 5. in
      if ready = [] then raise (Abort "no reply within 5 s");
      List.iter
        (fun fd ->
          Array.iter
            (fun c ->
              if c.fd = fd then begin
                receive out c phase;
                let now = Clock.now_ns () in
                if now < t_end then send c ~due:now ~window:(window now)
              end)
            conns)
        ready
  done

(* --- set-up --- *)

let streams ~seed =
  Array.init 2 (fun c ->
      let rng = X.create ((seed * 104729) + c) in
      let present = Array.init owned (fun j -> j) in
      for i = owned - 1 downto 1 do
        let j = X.below rng (i + 1) in
        let x = present.(i) in
        present.(i) <- present.(j);
        present.(j) <- x
      done;
      let prefill = Array.sub present 0 (owned * 3 / 4) in
      let ops =
        Array.init stream_len (fun _ ->
            let k = (2 * X.below rng owned) + c in
            let r = X.below rng 100 in
            (k lsl 2) lor if r < 80 then 0 else if r < 95 then 1 else 2)
      in
      (prefill, ops))

(* One request outside the measured traffic (no request of the mix may
   be in flight on [conn]); the reply must echo its id. *)
let call conn req =
  let id = conn.next_id in
  conn.next_id <- (id + 1) land 0xFFFFFFFF;
  match
    P.write_request_v2 conn.fd ~id req;
    P.read_response_v2 conn.fd
  with
  | Ok (rid, resp) when rid = id -> Some resp
  | Ok _ | Error _ -> None
  | exception Unix.Unix_error _ -> None

(* Pipelined PUTs of each connection's prefill keys, 64 in flight per
   connection, both connections at once. *)
let prefill out conns (keys : int array array) =
  let n = Array.length keys.(0) in
  let i = ref 0 in
  while !i < n do
    let batch = min 64 (n - !i) in
    Array.iteri
      (fun c conn ->
        for b = 0 to batch - 1 do
          let j = keys.(c).(!i + b) in
          let k = (2 * j) + c in
          let v = conn.version in
          conn.version <- v + 1;
          conn.model.(j) <- v;
          let id = conn.next_id in
          conn.next_id <- id + 1;
          P.write_request_v2 conn.fd ~id (P.Put (k, value_of k v));
          Queue.push
            { id; due = 0; sent = 0; sent_done = 0; expect = P.Ok; get = false; window = -1 }
            conn.pending
        done)
      conns;
    Array.iter
      (fun conn ->
        for _ = 1 to batch do
          receive out conn None
        done)
      conns;
    i := !i + batch
  done

type booted = { server : server; conns : conn array }

let boot out ~exe ~seed =
  let inputs = streams ~seed in
  let server = spawn exe in
  let conns = Array.mapi (fun c (_, ops) -> connect server.port c ~ops) inputs in
  prefill out conns (Array.map fst inputs);
  { server; conns }

let shutdown out b =
  Outcome.check out (call b.conns.(0) P.Drain = Some P.Ok) "DRAIN not acknowledged";
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) b.conns;
  Outcome.check out (reap b.server) "server did not exit cleanly after DRAIN"

(* --- the workloads --- *)

let us_pct sorted p =
  if Array.length sorted = 0 then 0. else Quant.percentile_sorted sorted p /. 1e3

let per_window ws p = Array.map (fun s -> us_pct (Samples.merged_sorted [ s ]) p) ws

(* The better decile over windows of a per-window latency percentile,
   in us. *)
let window_best (ph : phase) p = Quant.best Lower (per_window ph.lat p)

(* Server-side figures read after a traced pass: per-opcode p99 from
   STAT, and how many slow requests the server captured. *)
let server_layer out b (phases : phase list) =
  let stat =
    match call b.conns.(0) P.Stat with
    | Some (P.Value body) -> Result.to_option (Nbhash_util.Json.parse body)
    | _ -> None
  in
  Outcome.check out (stat <> None) "STAT failed";
  let stat_p99 op =
    let open Nbhash_util.Json in
    Option.bind stat (fun j ->
        Option.bind (member "ops" j) (fun o ->
            Option.bind (member op o) (fun o ->
                Option.bind (member "p99_ns" o) to_num)))
    |> Option.value ~default:0.
    |> fun ns -> ns /. 1e3
  in
  List.iter (fun op -> Outcome.set out ("server.stat_p99_us." ^ op) (stat_p99 op))
    [ "get"; "put"; "del" ];
  let pooled f = Samples.merged_sorted (List.map f phases) in
  let rtt = pooled (fun ph -> ph.rtt) in
  Outcome.set out "server.rtt_p50_us" (us_pct rtt 50.);
  Outcome.set out "server.rtt_p99_us" (us_pct rtt 99.);
  Outcome.set out "server.queue_p99_us"
    (us_pct (pooled (fun ph -> ph.get_lat)) 99. -. stat_p99 "get");
  let captured =
    match
      Nbhash_telemetry.Metrics_server.http_get ~port:b.server.metrics_port
        "/slow.json"
    with
    | Ok (200, body) ->
      Option.bind (Result.to_option (Nbhash_util.Json.parse body)) (fun j ->
          Option.bind (Nbhash_util.Json.member "captured" j) Nbhash_util.Json.to_num)
    | _ -> None
  in
  Outcome.check out (captured <> None) "/slow.json unreadable";
  Outcome.set out "server.slow_captures" (Option.value ~default:0. captured)

let setup_reps = 5

(* Boot, prefill and drain [setup_reps] times; keep the last server. *)
let session out ~exe ~seed ~measure =
  let times = ref [] and kept = ref None in
  for i = 1 to setup_reps do
    let t0 = Clock.now_ns () in
    let b = boot out ~exe ~seed in
    times := (float (Clock.now_ns () - t0) /. 1e9) :: !times;
    if i < setup_reps then shutdown out b else kept := Some b
  done;
  let b = Option.get !kept in
  {
    Outcome.setup_s = Quant.median_list !times;
    measure = measure b;
    finish =
      (fun () ->
        let mem = Outcome.peak_rss_mb b.server.pid in
        shutdown out b;
        mem);
  }

let lag_limit_us = 1000.

let open_loop_workload out ~exe ~seed =
  session out ~exe ~seed ~measure:(fun b ~seconds ~spans ->
      let buf = Option.map (fun a -> a.(0)) spans in
      open_loop out b.conns ~rate:(List.hd rates) ~duration_ns:warmup_ns None;
      let duration_ns = int_of_float (seconds /. float (List.length rates) *. 1e9) in
      let phases =
        List.map
          (fun rate ->
            let ph =
              new_phase ~duration_ns ~open_:true ~spans:buf
                ~per_window:(int_of_float (rate *. float window_ns /. 1e9 *. 1.25) + 1024)
            in
            open_loop out b.conns ~rate ~duration_ns (Some ph);
            (rate, ph))
          rates
      in
      (* The generator is healthy when it sends on time: in the median
         window, 99% of requests left within 1 ms of their due time. *)
      let lag_p99 =
        Quant.median
          (Array.concat (List.map (fun (_, ph) -> per_window ph.lag 99.) phases))
      in
      Outcome.check out (lag_p99 <= lag_limit_us)
        (Printf.sprintf "load generator lag p99 %.0f us exceeds %.0f us" lag_p99
           lag_limit_us);
      if spans <> None then begin
        Outcome.set out "client.lag_p99_us" lag_p99;
        List.iter
          (fun (rate, ph) ->
            let r = Printf.sprintf "r%.0f" rate in
            Outcome.set out ("client.p50_us." ^ r) (window_best ph 50.);
            Outcome.set out ("client.p99_us." ^ r) (window_best ph 99.))
          phases;
        server_layer out b (List.map snd phases)
      end;
      (* The end-to-end latency is the 2,000 req/s figure (README). *)
      let base = List.assoc (List.hd rates) phases in
      (* Completions over the time from the first request due to the
         last reply, so a backlog the server is slow to clear shows. *)
      let sum f = List.fold_left (fun acc (_, ph) -> acc + f ph) 0 phases in
      let completed = sum (fun ph -> Array.fold_left ( + ) 0 ph.completed) in
      let elapsed_ns = sum (fun ph -> ph.last_reply - ph.first_due) in
      {
        Outcome.mops = float completed /. float elapsed_ns *. 1e3;
        p50_us = window_best base 50.;
        p99_us = window_best base 99.;
      })

let closed_loop_workload out ~exe ~seed =
  session out ~exe ~seed ~measure:(fun b ~seconds ~spans ->
      closed_loop out b.conns ~duration_ns:warmup_ns None;
      let ph =
        new_phase
          ~duration_ns:(int_of_float (seconds *. 1e9))
          ~per_window:40_000 ~open_:false
          ~spans:(Option.map (fun a -> a.(0)) spans)
      in
      closed_loop out b.conns ~duration_ns:(int_of_float (seconds *. 1e9)) (Some ph);
      if spans <> None then server_layer out b [ ph ];
      let window_mops n = float n /. float window_ns *. 1e3 in
      {
        Outcome.mops = Quant.best Higher (Array.map window_mops ph.completed);
        p50_us = window_best ph 50.;
        p99_us = window_best ph 99.;
      })
