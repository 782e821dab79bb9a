(** The KV service wire protocol: length-prefixed binary frames over a
    stream socket.

    A frame is a 4-byte big-endian payload length followed by the
    payload; the payload's first byte is an opcode, the rest is the
    body. Keys are 8-byte big-endian non-negative integers below
    {!max_key}; values are arbitrary byte strings (empty allowed) up
    to the frame limit. One request frame yields exactly one response
    frame; requests on one connection are processed in order.

    Opcodes — requests: [0x01] GET key, [0x02] PUT key value,
    [0x03] DEL key, [0x04] PING, [0x05] DRAIN, [0x06] STAT.
    Responses: [0x80] VALUE bytes, [0x81] OK, [0x82] NOT_FOUND,
    [0xEE] ERR message.

    Framing errors (truncated length prefix or body, oversized
    declared length) are answered with an ERR frame before the server
    closes the connection; payload-level errors (bad opcode, wrong
    body size, key out of range) are answered with ERR and the
    connection stays usable, because the framing is still in sync.

    {b Revision 2.} A connection starts in v1. A client that sends
    {!Hello} (a PING with a one-byte body naming revision 2 — a
    payload-level error on a v1 server, so the ERR reply doubles as a
    clean fallback signal) and receives [Value hello_ack] has switched
    that connection to v2: every subsequent frame, both directions,
    carries a 4-byte big-endian request id between the opcode byte and
    the v1 body, echoed verbatim in the response. The id is the
    client-side join key for per-request latency attribution. *)

type request =
  | Get of int
  | Put of int * string
  | Del of int
  | Ping
  | Drain  (** finish in-flight migrations, then shut the server down *)
  | Stat  (** server configuration and occupancy as a small JSON body *)
  | Hello  (** negotiate protocol revision 2 on this connection *)
  | Force_resize of int
      (** force a grow of the given shard's table — operational stall
          injection for testing the slow-request capture *)

type response = Value of string | Ok | Not_found | Err of string

type rev = V1 | V2
(** Per-connection protocol revision (see {!Hello}). *)

val hello_ack : string
(** The VALUE body a v2 server answers {!Hello} with. *)

val max_key : int
(** [2^59]. Keys at or above this are reserved for the server's own
    use (migration-drain probes). *)

val default_max_frame : int
(** 1 MiB of payload. *)

(** {1 Codec} — payloads without the length prefix} *)

val request_to_payload : request -> string
val request_of_payload : string -> (request, string) result
val response_to_payload : response -> string
val response_of_payload : string -> (response, string) result

(** {1 Framed IO over file descriptors} *)

val write_frame : Unix.file_descr -> string -> unit
(** Prefix the payload with its length and write it all out. *)

val write_request : Unix.file_descr -> request -> unit
val write_response : Unix.file_descr -> response -> unit

val read_frame :
  ?max_frame:int -> Unix.file_descr -> (string option, string) result
(** Read one whole frame. [Ok None] on clean EOF at a frame boundary;
    [Error msg] on a truncated prefix or body, or a declared length of
    zero or above [max_frame]. Blocking. *)

val read_response :
  ?max_frame:int -> Unix.file_descr -> (response, string) result
(** [read_frame] + decode; EOF where a response was due is an error. *)

(** {1 Buffered reader}

    The server's read path: one reusable buffer per connection, filled
    by one [read] at a time, so a request that arrives in one segment
    costs one system call. *)

type reader

val reader_capacity : int
(** The initial buffer size, 4 KiB. *)

val reader : ?max_frame:int -> Unix.file_descr -> reader
(** A reader over [fd] with an empty {!reader_capacity}-byte buffer.
    The buffer grows to at most [4 + max_frame] bytes for a large
    frame and shrinks back to {!reader_capacity} once the bytes after
    that frame fit in it. *)

val next_frame : timed:bool -> reader -> (string option, string) result
(** The next frame, as {!read_frame} would return it, with the same
    error texts. Every complete frame one [read] delivered is returned,
    in order, before the reader reads again. With [~timed:true] the
    call also records {!first_byte_ns}; with [~timed:false] it reads
    no clock. *)

val first_byte_ns : reader -> int
(** After a timed {!next_frame}: when the [read] that delivered the
    frame's first byte returned or, if that byte was already buffered,
    when [next_frame] was called. The boundary between idle wait and
    the read stage, for per-request attribution. *)

val buffer_capacity : reader -> int
(** The current buffer size in bytes. *)

(** {1 Revision 2 codec and IO}

    v2 frames carry a 4-byte request id between opcode and body;
    responses echo the request's id. *)

val write_request_v2 : Unix.file_descr -> id:int -> request -> unit
val write_response_v2 : Unix.file_descr -> id:int -> response -> unit

val request_of_payload_v2 : string -> (request, string) result
(** Decode a v2 request payload (id stripped; read it separately with
    {!v2_frame_id} — error replies echo it even when the decode
    fails). *)

val v2_frame_id : string -> int
(** The request id of a v2 frame; 0 if the frame is too short. *)

val read_response_v2 :
  ?max_frame:int -> Unix.file_descr -> (int * response, string) result
(** Read one v2 response; returns [(echoed_id, response)]. *)
