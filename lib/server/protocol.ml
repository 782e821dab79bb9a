type request =
  | Get of int
  | Put of int * string
  | Del of int
  | Ping
  | Drain
  | Stat
  | Hello
  | Force_resize of int

type response = Value of string | Ok | Not_found | Err of string
type rev = V1 | V2

let max_key = 1 lsl 59
let default_max_frame = 1 lsl 20

(* --- opcodes --- *)

let op_get = '\x01'
let op_put = '\x02'
let op_del = '\x03'
let op_ping = '\x04'
let op_drain = '\x05'
let op_stat = '\x06'
let op_force_resize = '\x07'
let op_value = '\x80'
let op_ok = '\x81'
let op_not_found = '\x82'
let op_err = '\xee'

(* HELLO is a PING with a one-byte body naming the requested protocol
   revision — deliberately a *payload-level* error on a v1 server
   ("PING expects a 1-byte payload"), which answers ERR and keeps the
   connection open, so a v2 client falls back to v1 framing on the
   same connection. A v2 server answers [Value hello_ack] and switches
   that connection to v2 frames for everything that follows. *)
let hello_rev = '\x02'
let hello_ack = "\x02"

(* --- payload codec --- *)

let keyed_payload op key body =
  let b = Bytes.create (9 + String.length body) in
  Bytes.set b 0 op;
  Bytes.set_int64_be b 1 (Int64.of_int key);
  Bytes.blit_string body 0 b 9 (String.length body);
  Bytes.unsafe_to_string b

let bodied_payload op body =
  let b = Bytes.create (1 + String.length body) in
  Bytes.set b 0 op;
  Bytes.blit_string body 0 b 1 (String.length body);
  Bytes.unsafe_to_string b

let request_to_payload = function
  | Get k -> keyed_payload op_get k ""
  | Put (k, v) -> keyed_payload op_put k v
  | Del k -> keyed_payload op_del k ""
  | Ping -> String.make 1 op_ping
  | Drain -> String.make 1 op_drain
  | Stat -> String.make 1 op_stat
  | Hello ->
    let b = Bytes.create 2 in
    Bytes.set b 0 op_ping;
    Bytes.set b 1 hello_rev;
    Bytes.unsafe_to_string b
  | Force_resize shard -> keyed_payload op_force_resize shard ""

let response_to_payload = function
  | Value v -> bodied_payload op_value v
  | Ok -> String.make 1 op_ok
  | Not_found -> String.make 1 op_not_found
  | Err msg -> bodied_payload op_err msg

let key_of payload =
  let k = Int64.to_int (String.get_int64_be payload 1) in
  if k < 0 || k >= max_key then
    Result.Error (Printf.sprintf "key %d out of range [0, 2^59)" k)
  else Result.Ok k

let ( let* ) = Result.bind

let request_of_payload payload =
  let n = String.length payload in
  if n = 0 then Result.Error "empty frame"
  else
    let body_exn want op =
      if n = want then Result.Ok ()
      else
        Result.Error
          (Printf.sprintf "%s expects a %d-byte payload, got %d" op want n)
    in
    match payload.[0] with
    | c when c = op_get ->
      let* () = body_exn 9 "GET" in
      let* k = key_of payload in
      Result.Ok (Get k)
    | c when c = op_del ->
      let* () = body_exn 9 "DEL" in
      let* k = key_of payload in
      Result.Ok (Del k)
    | c when c = op_put ->
      if n < 9 then
        Result.Error (Printf.sprintf "PUT expects at least 9 bytes, got %d" n)
      else
        let* k = key_of payload in
        Result.Ok (Put (k, String.sub payload 9 (n - 9)))
    | c when c = op_ping ->
      if n = 1 then Result.Ok Ping
      else if n = 2 && payload.[1] = hello_rev then Result.Ok Hello
      else
        Result.Error (Printf.sprintf "PING expects a 1-byte payload, got %d" n)
    | c when c = op_force_resize ->
      let* () = body_exn 9 "FORCE_RESIZE" in
      let* shard = key_of payload in
      Result.Ok (Force_resize shard)
    | c when c = op_drain ->
      let* () = body_exn 1 "DRAIN" in
      Result.Ok Drain
    | c when c = op_stat ->
      let* () = body_exn 1 "STAT" in
      Result.Ok Stat
    | c -> Result.Error (Printf.sprintf "bad opcode 0x%02x" (Char.code c))

let response_of_payload payload =
  let n = String.length payload in
  if n = 0 then Result.Error "empty frame"
  else
    match payload.[0] with
    | c when c = op_value -> Result.Ok (Value (String.sub payload 1 (n - 1)))
    | c when c = op_ok ->
      if n = 1 then Result.Ok Ok else Result.Error "OK carries no body"
    | c when c = op_not_found ->
      if n = 1 then Result.Ok Not_found
      else Result.Error "NOT_FOUND carries no body"
    | c when c = op_err -> Result.Ok (Err (String.sub payload 1 (n - 1)))
    | c ->
      Result.Error (Printf.sprintf "bad response opcode 0x%02x" (Char.code c))

(* --- framed IO --- *)

(* A signal (drain wake-ups, profilers, job control) delivered during
   a blocking read/write raises EINTR; the operation is retryable, so
   retry instead of tearing the connection down. *)
let rec intr_write fd b off len =
  try Unix.write fd b off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> intr_write fd b off len

let rec intr_read fd b off len =
  try Unix.read fd b off len
  with Unix.Unix_error (Unix.EINTR, _, _) -> intr_read fd b off len

let write_all fd b =
  let n = Bytes.length b in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + intr_write fd b !sent (n - !sent)
  done

let write_frame fd payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  write_all fd b

let write_request fd r = write_frame fd (request_to_payload r)
let write_response fd r = write_frame fd (response_to_payload r)

(* Read exactly [want] bytes into [b]; the number actually read is
   returned (short only at EOF). *)
let read_exact fd b want =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < want do
    let n = intr_read fd b !got (want - !got) in
    if n = 0 then eof := true else got := !got + n
  done;
  !got

let read_frame ?(max_frame = default_max_frame) fd =
  let prefix = Bytes.create 4 in
  match read_exact fd prefix 4 with
  | 0 -> Result.Ok None
  | p when p < 4 ->
    Result.Error (Printf.sprintf "truncated length prefix (%d of 4 bytes)" p)
  | _ -> (
    let len = Int32.to_int (Bytes.get_int32_be prefix 0) in
    if len <= 0 then
      Result.Error (Printf.sprintf "bad declared length %d" len)
    else if len > max_frame then
      Result.Error
        (Printf.sprintf "oversized declared length %d (max %d)" len max_frame)
    else
      let body = Bytes.create len in
      match read_exact fd body len with
      | got when got < len ->
        Result.Error
          (Printf.sprintf "truncated frame (%d of %d bytes)" got len)
      | _ -> Result.Ok (Some (Bytes.unsafe_to_string body)))

let read_response ?max_frame fd =
  match read_frame ?max_frame fd with
  | Result.Error _ as e -> e
  | Result.Ok None -> Result.Error "connection closed before the response"
  | Result.Ok (Some payload) -> response_of_payload payload

(* --- buffered per-connection reader (the server's read path) --- *)

(* One reusable buffer per connection, filled by one [read] at a time:
   every complete frame a [read] delivered is returned, in order,
   before the next [read]. A request that arrives in one segment costs
   one system call, and the only per-frame allocation is the payload
   copy. [buf.[lo, hi)] holds the bytes received but not yet returned;
   the buffer grows to at most [4 + max_frame] bytes for a large frame
   and drops back to [reader_capacity] once the bytes left over fit. *)
type reader = {
  fd : Unix.file_descr;
  max_frame : int;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable t_first : int;
}
[@@nbhash.plain_ok
  "one reader per connection, used only by the worker domain serving \
   that connection; never shared"]

let reader_capacity = 4096

let reader ?(max_frame = default_max_frame) fd =
  {
    fd;
    max_frame;
    buf = Bytes.create reader_capacity;
    lo = 0;
    hi = 0;
    t_first = 0;
  }

let buffer_capacity r = Bytes.length r.buf
let first_byte_ns r = r.t_first

(* Make room for [need] bytes from [lo] (moving the unread bytes to
   the front, into a larger buffer if [need] does not fit), then
   [read] once. Returns the byte count, 0 at EOF. *)
let refill r ~need =
  let avail = r.hi - r.lo in
  if need > Bytes.length r.buf then begin
    let b = Bytes.create need in
    Bytes.blit r.buf r.lo b 0 avail;
    r.buf <- b
  end
  else if r.lo > 0 then Bytes.blit r.buf r.lo r.buf 0 avail;
  r.lo <- 0;
  r.hi <- avail;
  let n = intr_read r.fd r.buf r.hi (Bytes.length r.buf - r.hi) in
  r.hi <- r.hi + n;
  n

(* Read until [need] bytes are buffered from [lo]; [false] at EOF.
   [timed] stamps [t_first] when the read that delivers the frame's
   first byte returns. *)
let rec fill r ~timed ~need =
  r.hi - r.lo >= need
  ||
  let empty = r.hi = r.lo in
  refill r ~need > 0
  && begin
       if timed && empty then r.t_first <- Nbhash_util.Clock.now_ns ();
       fill r ~timed ~need
     end

(* Hand out [len] payload bytes at [lo + 4] and drop back to the
   initial buffer once what is left over fits in it. *)
let take r len =
  let payload = Bytes.sub_string r.buf (r.lo + 4) len in
  r.lo <- r.lo + 4 + len;
  if Bytes.length r.buf > reader_capacity && r.hi - r.lo <= reader_capacity
  then begin
    let b = Bytes.create reader_capacity in
    Bytes.blit r.buf r.lo b 0 (r.hi - r.lo);
    r.buf <- b;
    r.hi <- r.hi - r.lo;
    r.lo <- 0
  end;
  payload

let next_frame ~timed r =
  (* A first byte already buffered arrived before this call: its
     frame's read stage starts now. *)
  if timed && r.hi > r.lo then r.t_first <- Nbhash_util.Clock.now_ns ();
  if not (fill r ~timed ~need:4) then
    if r.hi = r.lo then Result.Ok None
    else
      Result.Error
        (Printf.sprintf "truncated length prefix (%d of 4 bytes)" (r.hi - r.lo))
  else
    let len = Int32.to_int (Bytes.get_int32_be r.buf r.lo) in
    if len <= 0 then Result.Error (Printf.sprintf "bad declared length %d" len)
    else if len > r.max_frame then
      Result.Error
        (Printf.sprintf "oversized declared length %d (max %d)" len r.max_frame)
    else if not (fill r ~timed ~need:(4 + len)) then
      Result.Error
        (Printf.sprintf "truncated frame (%d of %d bytes)" (r.hi - r.lo - 4) len)
    else Result.Ok (Some (take r len))

(* --- protocol revision 2 --- *)

(* A v2 frame is the v1 frame with a 4-byte big-endian request id
   spliced in between the opcode byte and the rest of the payload,
   echoed verbatim in the response frame — the client-side join key
   that lets the load generator match each reply to the exact send it
   timed. Negotiated per connection via HELLO (see [hello_rev]);
   everything below splices into / strips out of the v1 codec so the
   two revisions cannot drift apart. *)

let v2_splice payload ~id =
  let n = String.length payload in
  let b = Bytes.create (n + 4) in
  Bytes.set b 0 payload.[0];
  Bytes.set_int32_be b 1 (Int32.of_int (id land 0xFFFFFFFF));
  Bytes.blit_string payload 1 b 5 (n - 1);
  Bytes.unsafe_to_string b

let v2_strip payload =
  let n = String.length payload in
  let b = Bytes.create (n - 4) in
  Bytes.set b 0 payload.[0];
  Bytes.blit_string payload 5 b 1 (n - 5);
  Bytes.unsafe_to_string b

(* The id of a v2 frame, without decoding the rest; 0 when the frame
   is too short to carry one (the decode will fail anyway, but error
   replies still echo something well-defined). *)
let v2_frame_id payload =
  if String.length payload < 5 then 0
  else Int32.to_int (String.get_int32_be payload 1) land 0xFFFFFFFF

let write_request_v2 fd ~id r =
  write_frame fd (v2_splice (request_to_payload r) ~id)

let write_response_v2 fd ~id r =
  write_frame fd (v2_splice (response_to_payload r) ~id)

let request_of_payload_v2 payload =
  if String.length payload < 5 then
    Result.Error
      (Printf.sprintf "v2 frame too short for a request id (%d bytes)"
         (String.length payload))
  else request_of_payload (v2_strip payload)

let read_response_v2 ?max_frame fd =
  match read_frame ?max_frame fd with
  | Result.Error msg -> Result.Error msg
  | Result.Ok None -> Result.Error "connection closed before the response"
  | Result.Ok (Some payload) ->
    if String.length payload < 5 then
      Result.Error
        (Printf.sprintf "v2 frame too short for a request id (%d bytes)"
           (String.length payload))
    else (
      match response_of_payload (v2_strip payload) with
      | Result.Ok r -> Result.Ok (v2_frame_id payload, r)
      | Result.Error msg -> Result.Error msg)
