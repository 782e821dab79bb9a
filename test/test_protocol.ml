(* The KV wire protocol: codec round-trips (randomized over the full
   key range and value shapes including empty), framed IO over a
   socketpair, and the malformed-frame behaviour of a live server —
   framing errors get an ERR and a close, payload errors get an ERR
   and a connection that keeps working, and the table behind the
   server stays healthy through all of it. *)

module P = Nbhash_server.Protocol
module Server = Nbhash_server.Server
module Backend = Nbhash_server.Backend

let request_eq (a : P.request) (b : P.request) = a = b

let request_pp fmt (r : P.request) =
  Format.pp_print_string fmt
    (match r with
    | Get k -> Printf.sprintf "Get %d" k
    | Put (k, v) -> Printf.sprintf "Put (%d, %d bytes)" k (String.length v)
    | Del k -> Printf.sprintf "Del %d" k
    | Ping -> "Ping"
    | Drain -> "Drain"
    | Stat -> "Stat"
    | Hello -> "Hello"
    | Force_resize s -> Printf.sprintf "Force_resize %d" s)

let request_t = Alcotest.testable request_pp request_eq

let response_pp fmt (r : P.response) =
  Format.pp_print_string fmt
    (match r with
    | Value v -> Printf.sprintf "Value (%d bytes)" (String.length v)
    | Ok -> "Ok"
    | Not_found -> "Not_found"
    | Err m -> "Err " ^ m)

let response_t = Alcotest.testable response_pp ( = )

(* --- randomized codec round-trips --- *)

let gen_key = QCheck2.Gen.(map (fun k -> k land (P.max_key - 1)) nat)

let gen_value =
  (* Biased towards the edges: empty, one byte, and arbitrary binary
     strings (any byte value, embedded NULs included). *)
  QCheck2.Gen.(
    oneof
      [
        return "";
        map (String.make 1) (map Char.chr (int_bound 255));
        string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 512);
      ])

let gen_request =
  QCheck2.Gen.(
    oneof
      [
        map (fun k -> P.Get k) gen_key;
        map2 (fun k v -> P.Put (k, v)) gen_key gen_value;
        map (fun k -> P.Del k) gen_key;
        return P.Ping;
        return P.Drain;
        return P.Stat;
        return P.Hello;
        map (fun s -> P.Force_resize s) gen_key;
      ])

let gen_response =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> P.Value v) gen_value;
        return P.Ok;
        return P.Not_found;
        map (fun m -> P.Err m) (string_size (int_bound 64));
      ])

let prop_request_roundtrip =
  QCheck2.Test.make ~name:"request codec round-trips" ~count:500 gen_request
    (fun r -> P.request_of_payload (P.request_to_payload r) = Result.Ok r)

let prop_response_roundtrip =
  QCheck2.Test.make ~name:"response codec round-trips" ~count:500 gen_response
    (fun r -> P.response_of_payload (P.response_to_payload r) = Result.Ok r)

(* v2 framing: the spliced id survives the wire in both directions and
   the v1 request underneath decodes unchanged. *)
let prop_v2_roundtrip =
  QCheck2.Test.make ~name:"v2 id splice round-trips" ~count:200
    QCheck2.Gen.(
      triple gen_request gen_response
        (map (fun i -> i land 0xFFFFFFFF) nat))
    (fun (req, resp, id) ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close a with Unix.Unix_error _ -> ());
          try Unix.close b with Unix.Unix_error _ -> ())
        (fun () ->
          P.write_request_v2 a ~id req;
          let req_ok =
            match P.read_frame b with
            | Result.Ok (Some payload) ->
              P.v2_frame_id payload = id
              && P.request_of_payload_v2 payload = Result.Ok req
            | _ -> false
          in
          P.write_response_v2 b ~id resp;
          let resp_ok =
            match P.read_response_v2 a with
            | Result.Ok (rid, r) -> rid = id && r = resp
            | Result.Error _ -> false
          in
          req_ok && resp_ok))

(* --- codec edges --- *)

let test_codec_edges () =
  let rt r =
    Alcotest.(check (result request_t string))
      "round-trip" (Result.Ok r)
      (P.request_of_payload (P.request_to_payload r))
  in
  rt (P.Get 0);
  rt (P.Get (P.max_key - 1));
  rt (P.Put (0, ""));
  rt (P.Put (P.max_key - 1, String.make 4096 '\x00'));
  (* Keys at or above max_key are reserved: the codec rejects them on
     decode even though the encoder can be coerced into emitting one. *)
  (match P.request_of_payload (P.request_to_payload (P.Get P.max_key)) with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "key = max_key decoded");
  (match P.request_of_payload "" with
  | Result.Error _ -> ()
  | Result.Ok _ -> Alcotest.fail "empty payload decoded");
  (* Wrong body sizes for fixed-size opcodes. *)
  List.iter
    (fun payload ->
      match P.request_of_payload payload with
      | Result.Error _ -> ()
      | Result.Ok _ ->
        Alcotest.fail (Printf.sprintf "bad payload %S decoded" payload))
    [ "\x01abc"; "\x03"; "\x04x"; "\x05xy"; "\x06z"; "\x02\x00\x00" ];
  match P.request_of_payload "\x7fxxxxxxxx" with
  | Result.Error msg ->
    Alcotest.(check bool) "bad opcode named" true
      (String.length msg >= 10 && String.sub msg 0 10 = "bad opcode")
  | Result.Ok _ -> Alcotest.fail "bad opcode decoded"

(* --- framed IO over a socketpair --- *)

let test_framed_io () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      P.write_request a (P.Put (7, "hello"));
      P.write_request a P.Ping;
      (match P.read_frame b with
      | Result.Ok (Some payload) ->
        Alcotest.(check (result request_t string))
          "first frame" (Result.Ok (P.Put (7, "hello")))
          (P.request_of_payload payload)
      | _ -> Alcotest.fail "first frame unreadable");
      (match P.read_frame b with
      | Result.Ok (Some payload) ->
        Alcotest.(check (result request_t string))
          "second frame" (Result.Ok P.Ping)
          (P.request_of_payload payload)
      | _ -> Alcotest.fail "second frame unreadable");
      (* Clean EOF at a frame boundary. *)
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match P.read_frame b with
      | Result.Ok None -> ()
      | _ -> Alcotest.fail "EOF at boundary not clean");
  (* Truncation inside the prefix and inside the body. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (Unix.write_substring a "\x00\x00" 0 2);
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  (match P.read_frame b with
  | Result.Error msg ->
    Alcotest.(check bool) "truncated prefix reported" true
      (String.length msg >= 9 && String.sub msg 0 9 = "truncated")
  | _ -> Alcotest.fail "truncated prefix not an error");
  Unix.close a;
  Unix.close b;
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (Unix.write_substring a "\x00\x00\x00\x0aXY" 0 6);
  Unix.shutdown a Unix.SHUTDOWN_SEND;
  (match P.read_frame b with
  | Result.Error msg ->
    Alcotest.(check bool) "truncated body reported" true
      (String.length msg >= 9 && String.sub msg 0 9 = "truncated")
  | _ -> Alcotest.fail "truncated body not an error");
  Unix.close a;
  Unix.close b;
  (* Oversized declared length is rejected without allocating it. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (Unix.write_substring a "\x7f\xff\xff\xff" 0 4);
  (match P.read_frame ~max_frame:1024 b with
  | Result.Error msg ->
    Alcotest.(check bool) "oversized reported" true
      (String.length msg >= 9 && String.sub msg 0 9 = "oversized")
  | _ -> Alcotest.fail "oversized length not an error");
  Unix.close a;
  Unix.close b

(* --- the server's buffered frame reader --- *)

let frame_bytes payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

(* Write [stream] into a fresh socketpair in pieces of the given sizes
   (cycled) from another domain, then shut the write side; [read] is
   called on the other end until it answers EOF or an error. The rest
   of the stream is drained before closing, so the writer never sees
   EPIPE. *)
let frames_through ~chunks stream (read : Unix.file_descr -> unit -> 'r)
    ~stop =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let chunks = Array.of_list chunks in
  let writer =
    Domain.spawn (fun () ->
        let n = String.length stream in
        let off = ref 0 and i = ref 0 in
        while !off < n do
          let want = min chunks.(!i mod Array.length chunks) (n - !off) in
          incr i;
          off := !off + Unix.write_substring a stream !off want
        done;
        Unix.shutdown a Unix.SHUTDOWN_SEND)
  in
  Fun.protect
    ~finally:(fun () ->
      let scratch = Bytes.create 65536 in
      while Unix.read b scratch 0 65536 > 0 do
        ()
      done;
      Domain.join writer;
      Unix.close a;
      Unix.close b)
    (fun () ->
      let next = read b in
      let rec go acc =
        let r = next () in
        if stop r then List.rev (r :: acc) else go (r :: acc)
      in
      go [])

let reader_max_frame = 65536

let frame_done = function Result.Ok (Some _) -> false | _ -> true

(* Read with the buffered reader, checking after every frame that the
   buffer is back at its initial capacity. *)
let via_reader ~timed fd =
  let r = P.reader ~max_frame:reader_max_frame fd in
  fun () ->
    let res = P.next_frame ~timed r in
    if (not (frame_done res)) && P.buffer_capacity r <> P.reader_capacity then
      Alcotest.failf "buffer left at %d bytes" (P.buffer_capacity r);
    res

let via_read_frame fd () = P.read_frame ~max_frame:reader_max_frame fd

(* Piece sizes: single bytes, a few bytes, and writes large enough to
   carry several frames at once. *)
let gen_chunks =
  QCheck2.Gen.(
    list_size (int_range 1 8)
      (oneof [ return 1; int_range 1 16; int_range 1 20_000 ]))

let gen_sized_payload =
  QCheck2.Gen.(
    map2
      (fun k n -> P.request_to_payload (P.Put (k, String.make n 'v')))
      gen_key
      (oneof [ int_range 0 64; int_range 0 5000 ]))

(* v1 requests, HELLO, then v2 requests (id spliced after the opcode)
   — the byte stream a negotiating client sends — with one payload of
   exactly [max_frame] bytes somewhere. *)
let gen_session =
  QCheck2.Gen.(
    let* v1 = list_size (int_range 0 6) gen_sized_payload in
    let* v2 = list_size (int_range 0 6) gen_sized_payload in
    let* big_at = int_bound (List.length v1 + List.length v2) in
    let v2 =
      List.mapi
        (fun i p ->
          let id = Printf.sprintf "%c\x00\x00%c" (Char.chr i) (Char.chr i) in
          String.make 1 p.[0] ^ id ^ String.sub p 1 (String.length p - 1))
        v2
    in
    let big =
      P.request_to_payload (P.Put (1, String.make (reader_max_frame - 9) 'B'))
    in
    let frames = v1 @ [ P.request_to_payload P.Hello ] @ v2 in
    let frames =
      List.concat
        (List.mapi (fun i f -> if i = big_at then [ big; f ] else [ f ]) frames)
    in
    pair (return frames) gen_chunks)

let prop_reader_frames =
  QCheck2.Test.make ~name:"buffered reader returns the frames in order"
    ~count:60 (QCheck2.Gen.pair gen_session QCheck2.Gen.bool)
    (fun ((frames, chunks), timed) ->
      let stream = String.concat "" (List.map frame_bytes frames) in
      let got =
        frames_through ~chunks stream (via_reader ~timed) ~stop:frame_done
      in
      got
      = List.map (fun f -> Result.Ok (Some f)) frames @ [ Result.Ok None ])

(* A stream that ends mid-prefix or mid-body, or declares a zero,
   negative or oversized length: the reader gives exactly what
   [read_frame] gives, frame for frame, error text included. *)
let gen_broken_stream =
  QCheck2.Gen.(
    let* frames = list_size (int_range 0 4) gen_sized_payload in
    let whole = String.concat "" (List.map frame_bytes frames) in
    let* tail =
      oneof
        [
          map
            (fun p ->
              let f = frame_bytes p in
              String.sub f 0 (max 1 (String.length f / 2)))
            gen_sized_payload;
          map (fun n -> String.sub "\x00\x00\x00" 0 n) (int_range 1 3);
          return "\x00\x00\x00\x00junk";
          return "\xff\xff\xff\xfejunk";
          return (frame_bytes (String.make (reader_max_frame + 1) 'x'));
        ]
    in
    pair (return (whole ^ tail)) gen_chunks)

let prop_reader_errors =
  QCheck2.Test.make ~name:"buffered reader errors match read_frame" ~count:100
    gen_broken_stream (fun (stream, chunks) ->
      let reference =
        frames_through ~chunks stream via_read_frame ~stop:frame_done
      in
      let got =
        frames_through ~chunks stream (via_reader ~timed:true) ~stop:frame_done
      in
      (match List.rev reference with
      | Result.Error _ :: _ -> ()
      | _ -> QCheck2.Test.fail_report "the stream is not broken");
      got = reference)

(* Frames that one write delivered are served from the buffer: no
   further read (the socket is non-blocking by then, so a read would
   raise EAGAIN) and no allocation but the payload and its
   [Ok (Some _)]. *)
let test_reader_buffered_frames () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      let payload = String.make 100 'p' in
      let stream = String.concat "" (List.init 4 (fun _ -> frame_bytes payload)) in
      ignore (Unix.write_substring a stream 0 (String.length stream));
      let r = P.reader b in
      let expect_payload timed =
        match P.next_frame ~timed r with
        | Result.Ok (Some p) when p = payload -> ()
        | _ -> Alcotest.fail "buffered frame not returned"
      in
      expect_payload true;
      Unix.set_nonblock b;
      let words timed =
        let before = Gc.minor_words () in
        expect_payload timed;
        Gc.minor_words () -. before
      in
      let payload_words = float_of_int (1 + ((100 + 8) / 8)) in
      List.iter
        (fun timed ->
          let w = words timed in
          if w > payload_words +. 4. then
            Alcotest.failf "a buffered frame allocated %.0f words (payload %.0f)"
              w payload_words)
        [ false; true; false ];
      Unix.clear_nonblock b;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match P.next_frame ~timed:false r with
      | Result.Ok None -> ()
      | _ -> Alcotest.fail "EOF after the buffered frames not clean")

(* --- malformed frames against a live server --- *)

let with_server ~kind f =
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
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server)

let client port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  fd

let expect_err name fd =
  match P.read_response fd with
  | Result.Ok (P.Err _) -> ()
  | other ->
    Alcotest.fail
      (Printf.sprintf "%s: expected ERR, got %s" name
         (match other with
         | Result.Ok r -> Format.asprintf "%a" response_pp r
         | Result.Error m -> "io error: " ^ m))

let expect name fd want =
  Alcotest.(check (result response_t string)) name want (P.read_response fd)

let test_malformed_against_server () =
  with_server ~kind:Backend.Lockfree (fun server ->
      let port = Server.port server in
      (* A truncated length prefix: ERR, then the connection is gone. *)
      let fd = client port in
      ignore (Unix.write_substring fd "\x00\x00" 0 2);
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      expect_err "truncated prefix" fd;
      (match P.read_frame fd with
      | Result.Ok None -> ()
      | _ -> Alcotest.fail "connection survived a framing error");
      Unix.close fd;
      (* An oversized declared length: ERR, connection closed. *)
      let fd = client port in
      ignore (Unix.write_substring fd "\x7f\xff\xff\xff" 0 4);
      expect_err "oversized length" fd;
      (match P.read_frame fd with
      | Result.Ok None -> ()
      | _ -> Alcotest.fail "connection survived an oversized length");
      Unix.close fd;
      (* A zero declared length is a framing error too. *)
      let fd = client port in
      ignore (Unix.write_substring fd "\x00\x00\x00\x00" 0 4);
      expect_err "zero length" fd;
      Unix.close fd;
      (* Payload-level garbage: ERR, but the connection keeps working. *)
      let fd = client port in
      P.write_frame fd "\x7fjunk";
      expect_err "bad opcode" fd;
      P.write_request fd P.Ping;
      expect "ping after bad opcode" fd (Result.Ok P.Ok);
      P.write_frame fd "\x01short";
      expect_err "short GET body" fd;
      P.write_request fd (P.Get 1);
      expect "get after short body" fd (Result.Ok P.Not_found);
      (* A key out of range is a payload error: rejected, connection
         usable, nothing stored under a reserved key. *)
      P.write_frame fd (P.request_to_payload (P.Put (P.max_key, "x")));
      expect_err "reserved key" fd;
      Unix.close fd;
      (* After all that abuse the table still works and holds
         invariants. *)
      let fd = client port in
      P.write_request fd (P.Put (42, "v"));
      expect "put after abuse" fd (Result.Ok P.Ok);
      P.write_request fd (P.Get 42);
      expect "get after abuse" fd (Result.Ok (P.Value "v"));
      Unix.close fd;
      Backend.check_invariants (Server.backend server))

(* --- revision 2 negotiation and id echo against a live server --- *)

let test_v2_against_server () =
  with_server ~kind:Backend.Lockfree (fun server ->
      let port = Server.port server in
      let fd = client port in
      (* A PING with the wrong 1-byte body is still the v1 payload
         error, not a negotiation. *)
      P.write_frame fd "\x04\x03";
      expect_err "ping with non-hello body" fd;
      (* HELLO switches this connection to revision 2. *)
      P.write_request fd P.Hello;
      expect "hello ack" fd (Result.Ok (P.Value P.hello_ack));
      (* v2 frames echo their id, on success... *)
      P.write_request_v2 fd ~id:0xDEADBEEF (P.Put (3, "v"));
      (match P.read_response_v2 fd with
      | Result.Ok (id, P.Ok) ->
        Alcotest.(check int) "put echoes id" 0xDEADBEEF id
      | Result.Ok (_, r) ->
        Alcotest.fail (Format.asprintf "put answered %a" response_pp r)
      | Result.Error m -> Alcotest.fail ("put io error: " ^ m));
      P.write_request_v2 fd ~id:7 (P.Get 3);
      (match P.read_response_v2 fd with
      | Result.Ok (7, P.Value "v") -> ()
      | Result.Ok (id, r) ->
        Alcotest.fail
          (Format.asprintf "get answered id=%d %a" id response_pp r)
      | Result.Error m -> Alcotest.fail ("get io error: " ^ m));
      (* ...and on payload errors: a bad opcode inside a v2 frame still
         echoes the id so the client can join the ERR to its request. *)
      P.write_frame fd "\x7f\x00\x00\x00\x2ajunk";
      (match P.read_response_v2 fd with
      | Result.Ok (0x2a, P.Err _) -> ()
      | Result.Ok (id, r) ->
        Alcotest.fail
          (Format.asprintf "bad opcode answered id=%d %a" id response_pp r)
      | Result.Error m -> Alcotest.fail ("bad opcode io error: " ^ m));
      Unix.close fd;
      (* A second connection is still v1: ids are per connection. *)
      let fd = client port in
      P.write_request fd (P.Get 3);
      expect "v1 connection unaffected" fd (Result.Ok (P.Value "v"));
      Unix.close fd;
      Backend.check_invariants (Server.backend server))

let test_force_resize_against_server () =
  with_server ~kind:Backend.Lockfree (fun server ->
      let port = Server.port server in
      let fd = client port in
      P.write_request fd (P.Force_resize 99);
      expect_err "out-of-range shard rejected" fd;
      P.write_request fd (P.Put (11, "x"));
      expect "put before resize" fd (Result.Ok P.Ok);
      P.write_request fd (P.Force_resize 0);
      expect "force resize shard 0" fd (Result.Ok P.Ok);
      P.write_request fd (P.Get 11);
      expect "get across resize" fd (Result.Ok (P.Value "x"));
      Unix.close fd;
      Backend.check_invariants (Server.backend server))

let suite =
  [
    ( "server protocol",
      [
        QCheck_alcotest.to_alcotest prop_request_roundtrip;
        QCheck_alcotest.to_alcotest prop_response_roundtrip;
        QCheck_alcotest.to_alcotest prop_v2_roundtrip;
        Alcotest.test_case "codec edges" `Quick test_codec_edges;
        Alcotest.test_case "framed io" `Quick test_framed_io;
        QCheck_alcotest.to_alcotest prop_reader_frames;
        QCheck_alcotest.to_alcotest prop_reader_errors;
        Alcotest.test_case "buffered frames cost no read" `Quick
          test_reader_buffered_frames;
        Alcotest.test_case "malformed frames, live server" `Quick
          test_malformed_against_server;
        Alcotest.test_case "v2 negotiation and id echo" `Quick
          test_v2_against_server;
        Alcotest.test_case "force-resize opcode" `Quick
          test_force_resize_against_server;
      ] );
  ]
