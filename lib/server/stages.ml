(* Per-request stage attribution for the KV server: one reusable
   per-connection context of plain-int timestamps, marked at the stage
   boundaries of [Server.serve_connection], turned into the staged
   spans (server_read_ns / decode / shard / help / write) on [finish].

   Adjacent stages share boundary timestamps, so
     read + decode + shard + write = total
   holds *exactly* per request, not just within tolerance; help is an
   attribution inside the shard stage (migration sweep chunks claimed
   on the serving domain, via [Nbhash_telemetry.Helptime]).

   Aggregation goes three ways per request:
   - the ambient probe's span histograms (the unlabeled families);
   - process-global labeled histograms keyed by opcode
     ([nbhash_server_stage_ns{op,stage}], [nbhash_server_op_ns{op}]),
     which feed /metrics, /snapshot.json's families block, STAT's
     per-op percentiles, and `nbhash_cli top`;
   - the flight recorder (B/E slices per stage, so a Perfetto track
     shows each request as read|decode|shard|write; the read slice
     additionally covers the idle wait for the first byte, which is
     the point — parked time is visible on the track).

   Disabled path: [enabled] is latched from the ambient probe once per
   request at [frame_start]; each subsequent mark is one branch on the
   cached flag plus the trace emitter's one load-and-branch, no clock
   reads, no allocation (Gc-asserted in test_server). *)

module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event
module Trace = Nbhash_telemetry.Trace
module Labeled = Nbhash_telemetry.Labeled
module Histogram = Nbhash_telemetry.Histogram
module Helptime = Nbhash_telemetry.Helptime
module Clock = Nbhash_util.Clock

type opclass = Get | Put | Del | Other

let op_index = function Get -> 0 | Put -> 1 | Del -> 2 | Other -> 3
let op_name = function Get -> "get" | Put -> "put" | Del -> "del" | Other -> "other"
let all_ops = [ Get; Put; Del; Other ]

let opclass_of_request (r : Protocol.request) =
  match r with
  | Protocol.Get _ -> Get
  | Protocol.Put _ -> Put
  | Protocol.Del _ -> Del
  | Protocol.Ping | Protocol.Drain | Protocol.Stat | Protocol.Hello
  | Protocol.Force_resize _ ->
    Other

type stage = Read | Decode | Shard | Help | Write

let stage_name = function
  | Read -> "read"
  | Decode -> "decode"
  | Shard -> "shard"
  | Help -> "help"
  | Write -> "write"

let all_stages = [ Read; Decode; Shard; Help; Write ]

(* The labeled families, registered once at module initialisation so
   every scrape sees a stable family set. stage_hists.(op).(stage). *)
let stage_hists =
  Array.of_list
    (List.map
       (fun op ->
         Array.of_list
           (List.map
              (fun st ->
                Labeled.histogram ~family:"nbhash_server_stage_ns"
                  ~help:"KV server per-request stage durations by opcode, nanoseconds"
                  ~labels:[ ("op", op_name op); ("stage", stage_name st) ]
                  ())
              all_stages))
       all_ops)

let op_hists =
  Array.of_list
    (List.map
       (fun op ->
         Labeled.histogram ~family:"nbhash_server_op_ns"
           ~help:"KV server request service time by opcode, nanoseconds"
           ~labels:[ ("op", op_name op) ]
           ())
       all_ops)

type t = {
  mutable enabled : bool;
  mutable t_first : int;  (* the frame's first byte was received *)
  mutable t_read : int;  (* frame fully buffered *)
  mutable t_decode : int;  (* request decoded *)
  mutable t_shard : int;  (* backend operation returned *)
  mutable t_write : int;  (* reply flushed *)
  mutable help0 : int;  (* Helptime.read at shard start *)
  mutable help_ns : int;
}
[@@nbhash.plain_ok
  "one context per connection, touched only by the worker domain serving \
   that connection; never shared"]

let make () =
  {
    enabled = false;
    t_first = 0;
    t_read = 0;
    t_decode = 0;
    t_shard = 0;
    t_write = 0;
    help0 = 0;
    help_ns = 0;
  }

let enabled c = c.enabled

(* About to block for the next frame. The read slice opens here so the
   trace shows the park; the histogram read stage starts at t_first. *)
let frame_start c =
  c.enabled <- Tm.is_recording ();
  Trace.span_begin Ev.Server_read_span

(* EOF or framing error: close the read slice, record nothing. *)
let frame_abandoned _c = Trace.span_end Ev.Server_read_span

let read_done c ~t_first =
  Trace.span_end Ev.Server_read_span;
  Trace.span_begin Ev.Server_span;
  Trace.span_begin Ev.Server_decode_span;
  if c.enabled then begin
    c.t_first <- t_first;
    c.t_read <- Clock.now_ns ()
  end

let decode_done c =
  Trace.span_end Ev.Server_decode_span;
  if c.enabled then c.t_decode <- Clock.now_ns ()

(* Decode error: the ERR reply was written outside the staged path;
   close the request slice and record nothing. *)
let abandon_request _c = Trace.span_end Ev.Server_span

let shard_start c =
  Trace.span_begin Ev.Server_shard_span;
  if c.enabled then c.help0 <- Helptime.read ()

let shard_done c =
  Trace.span_end Ev.Server_shard_span;
  Trace.span_begin Ev.Server_write_span;
  if c.enabled then begin
    c.t_shard <- Clock.now_ns ();
    c.help_ns <- Helptime.read () - c.help0
  end

let finish c ~op =
  Trace.span_end Ev.Server_write_span;
  Trace.span_end Ev.Server_span;
  if c.enabled then begin
    c.t_write <- Clock.now_ns ();
    let read_ns = c.t_read - c.t_first in
    let decode_ns = c.t_decode - c.t_read in
    let shard_ns = c.t_shard - c.t_decode in
    let write_ns = c.t_write - c.t_shard in
    let total_ns = c.t_write - c.t_first in
    Tm.observe Ev.Server_read_span read_ns;
    Tm.observe Ev.Server_decode_span decode_ns;
    Tm.observe Ev.Server_shard_span shard_ns;
    Tm.observe Ev.Server_help_span c.help_ns;
    Tm.observe Ev.Server_write_span write_ns;
    Tm.observe Ev.Server_span total_ns;
    let oi = op_index op in
    let sh = stage_hists.(oi) in
    Histogram.observe sh.(0) read_ns;
    Histogram.observe sh.(1) decode_ns;
    Histogram.observe sh.(2) shard_ns;
    Histogram.observe sh.(3) c.help_ns;
    Histogram.observe sh.(4) write_ns;
    Histogram.observe op_hists.(oi) total_ns
  end

(* Duration accessors, valid after [finish] until the next
   [frame_start]; plain int reads, for the slow-request capture. *)
let total_ns c = c.t_write - c.t_first
let read_ns c = c.t_read - c.t_first
let decode_ns c = c.t_decode - c.t_read
let shard_ns c = c.t_shard - c.t_decode
let write_ns c = c.t_write - c.t_shard
let help_ns c = c.help_ns

(* Per-opcode service-time summary from the labeled histograms, for
   STAT's "ops" block: [(n, p50_ns, p99_ns, p999_ns)]. *)
let op_summary op =
  let h = op_hists.(op_index op) in
  let counts = Histogram.counts h in
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then None
  else
    Some
      ( n,
        Histogram.percentile_of_counts counts n 50.,
        Histogram.percentile_of_counts counts n 99.,
        Histogram.percentile_of_counts counts n 99.9 )
