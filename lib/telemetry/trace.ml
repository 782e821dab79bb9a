(* The flight recorder: per-domain ring buffers of fixed-size trace
   records, the merger that turns them into one time-sorted stream,
   and the Chrome trace-event exporter.

   Counters and histograms (Probe) answer *how much*; these rings
   answer *when* and *in what order* — a freeze racing an update, a
   resize overlapping a sweep, a helper finishing someone else's
   operation. The write path is deliberately weaker than the rest of
   the telemetry layer: a record is four plain [int] stores into a
   lane selected by the writing domain's id, with a non-atomic
   position bump. No CAS, no fences, overwrite-oldest on wrap. If two
   domains ever share a lane (domain ids are assigned modulo the lane
   count) they may tear or overwrite each other's records — the
   decoder skips anything that does not parse, so the recorder is
   best-effort by construction and never perturbs the algorithms it
   observes beyond one load-and-branch when disabled.

   Draining ([records], [to_chrome_string]) reads the rings without
   synchronization; call it while the writers are quiescent (bench
   does, after joining its domains) or accept a torn record at each
   lane's write frontier. *)

module Atomic = Nbhash_util.Nb_atomic

(* One record = [words_per_record] consecutive ints: timestamp (ns,
   from Nbhash_util.Clock — the same clock as probe spans and bench
   latencies), operation code, argument, writing domain id. *)
let words_per_record = 4

type lane = {
  buf : int array;
  mutable pos : int (* total writes, monotonic *)
      [@nbhash.plain_ok
        "lossy by design (DESIGN.md 13): each lane is written by the domains \
         that hash to it without synchronization; readers tolerate torn \
         snapshots"];
}

type t = {
  lanes : lane array;
  lane_mask : int;
  capacity : int;  (* records per lane, a power of two *)
  cap_mask : int;
}

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let create ?(lanes = 16) ?(capacity = 4096) () =
  if lanes < 1 then invalid_arg "Trace.create: lanes < 1";
  if capacity < 2 then invalid_arg "Trace.create: capacity < 2";
  let lanes = next_pow2 lanes and capacity = next_pow2 capacity in
  {
    lanes =
      Array.init lanes (fun _ ->
          { buf = Array.make (capacity * words_per_record) 0; pos = 0 });
    lane_mask = lanes - 1;
    capacity;
    cap_mask = capacity - 1;
  }

let clear t =
  Array.iter
    (fun lane ->
      lane.pos <- 0;
      Array.fill lane.buf 0 (Array.length lane.buf) 0)
    t.lanes
[@@nbhash.plain_ok
  "reset path, called between runs while no writer is emitting; the ring is \
   racy by design (DESIGN.md 13)"]

(* The ambient sink, mirroring [Global]'s ambient probe. Hot paths go
   through [Real] deliberately: a trace read must not become a
   scheduling point under the model checker ([Nbhash_check] explores
   shimmed operations only), and the recorder has no correctness story
   to check — it is observation, not algorithm. *)
let current : t option Atomic.t = Atomic.make None

let install t = Atomic.Real.set current (Some t)
let uninstall () = Atomic.Real.set current None
let active () = Atomic.Real.get current

(* Record codes. 0 is reserved so that never-written slots (and the
   zeroed slots after [clear]) decode as invalid. Instants occupy
   1..63, span Begins 64..127, span Ends 128..191 — fixed-width bands,
   so growing [Event] past a band would silently alias instant codes
   into the Begin range and corrupt every decoded trace. Checked once
   at module initialisation: the build that adds the 64th counter (or
   65th span) fails its first test instead of shipping unreadable
   traces. *)
let () =
  if Event.count >= 64 then
    failwith "Trace: Event.count must stay < 64 (record-code band 1..63)";
  if Event.span_count > 64 then
    failwith "Trace: Event.span_count must stay <= 64 (record-code bands)"

let code_instant ev = 1 + Event.index ev
let code_begin s = 64 + Event.span_index s
let code_end s = 128 + Event.span_index s

let[@inline] write t code arg =
  let d = (Domain.self () :> int) in
  let lane = t.lanes.(d land t.lane_mask) in
  let p = lane.pos in
  lane.pos <- p + 1;
  let base = (p land t.cap_mask) * words_per_record in
  let buf = lane.buf in
  buf.(base) <- Nbhash_util.Clock.now_ns ();
  buf.(base + 1) <- code;
  buf.(base + 2) <- arg;
  buf.(base + 3) <- d
[@@nbhash.plain_ok
  "flight-recorder hot path: plain stores into the per-lane ring are the \
   documented performance tradeoff (DESIGN.md 13); the exporter tolerates \
   torn records"]

(* The three emitters the instrumentation sites use, via [Probe] /
   [Global]. Disabled path: one load, one branch, no allocation. *)

let[@inline] instant ev arg =
  match Atomic.Real.get current with
  | None -> ()
  | Some t -> write t (code_instant ev) arg

let[@inline] span_begin s =
  match Atomic.Real.get current with
  | None -> ()
  | Some t -> write t (code_begin s) 0

let[@inline] span_end s =
  match Atomic.Real.get current with
  | None -> ()
  | Some t -> write t (code_end s) 0

(* ------------------------------------------------------------------ *)
(* Draining and merging.                                              *)

type phase = Instant | Begin | End
type point = Counter of Event.t | Span of Event.span

type record = {
  ts_ns : int;
  domain : int;
  seq : int;  (* absolute position in the writing lane; merge tiebreak *)
  phase : phase;
  point : point;
  arg : int;
}

(* Span display names drop the unit suffix of the histogram key:
   "resize_ns" names a histogram, but the track slice is "resize". *)
let span_label s =
  let n = Event.span_to_string s in
  if Filename.check_suffix n "_ns" then Filename.chop_suffix n "_ns" else n

let point_name = function
  | Counter ev -> Event.to_string ev
  | Span s -> span_label s

let decode_code code =
  if code >= 1 && code <= Event.count then
    Some (Instant, Counter (Event.of_index (code - 1)))
  else if code >= 64 && code < 64 + Event.span_count then
    Some (Begin, Span (Event.span_of_index (code - 64)))
  else if code >= 128 && code < 128 + Event.span_count then
    Some (End, Span (Event.span_of_index (code - 128)))
  else None

let written t = Array.fold_left (fun acc lane -> acc + lane.pos) 0 t.lanes

(* ------------------------------------------------------------------ *)
(* Loss accounting. Overwrite-oldest is silent on the write path, so a
   "clean" Perfetto export can be missing events; these counts make
   the loss visible. Overwritten is exact by construction (total
   writes minus ring capacity); torn is the number of surviving slots
   whose code word does not decode — a record caught mid-write by a
   reader or clobbered by a lane-sharing domain. Both are computed at
   read time from the same unsynchronized snapshot the decoder uses,
   so they carry the recorder's usual best-effort caveat. *)

type drops = { overwritten : int; torn : int }

(* [(lane_index, overwritten, torn)] per lane. *)
let lane_drops t =
  Array.mapi
    (fun i lane ->
      let total = lane.pos in
      let overwritten = max 0 (total - t.capacity) in
      let n = min total t.capacity in
      let first = total - n in
      let torn = ref 0 in
      for j = 0 to n - 1 do
        let base = ((first + j) land t.cap_mask) * words_per_record in
        if decode_code lane.buf.(base + 1) = None then incr torn
      done;
      (i, overwritten, !torn))
    t.lanes

let drops t =
  Array.fold_left
    (fun acc (_, o, tn) ->
      { overwritten = acc.overwritten + o; torn = acc.torn + tn })
    { overwritten = 0; torn = 0 } (lane_drops t)

(* The newest [limit] surviving records of one lane that decode,
   oldest first. The scan runs backwards from the write frontier and
   stops once it has [limit], so a short tail costs O(limit), not
   O(capacity). *)
let lane_records ?(limit = max_int) t lane =
  let total = lane.pos in
  let first = total - min total t.capacity in
  let out = ref [] and kept = ref 0 and p = ref (total - 1) in
  while !p >= first && !kept < limit do
    let base = (!p land t.cap_mask) * words_per_record in
    (match decode_code lane.buf.(base + 1) with
    | None -> ()  (* torn or never-completed record *)
    | Some (phase, point) ->
      incr kept;
      out :=
        {
          ts_ns = lane.buf.(base);
          domain = lane.buf.(base + 3);
          seq = !p;
          phase;
          point;
          arg = lane.buf.(base + 2);
        }
        :: !out);
    decr p
  done;
  !out

(* Merge order: timestamp, then lane position (preserving per-domain
   program order — a domain always writes to the same lane), then
   domain, so that records of different lanes never compare equal. *)
let by_time a b =
  match compare a.ts_ns b.ts_ns with
  | 0 -> (
    match compare a.seq b.seq with 0 -> compare a.domain b.domain | c -> c)
  | c -> c

let merge ?limit t =
  let all =
    Array.to_list t.lanes
    |> List.concat_map (lane_records ?limit t)
    |> Array.of_list
  in
  Array.sort by_time all;
  all

(* All surviving records of all lanes, globally sorted by timestamp. *)
let records t = merge t

(* The newest [n] records of [records t]. A lane's records are already
   in time order (one writing domain, a monotonic clock), so each of
   the global newest [n] is among its own lane's newest [n]: merging
   those lanes x n candidates is enough. *)
let tail t ~n =
  if n <= 0 then [||]
  else
    let all = merge ~limit:n t in
    let len = Array.length all in
    if len <= n then all else Array.sub all (len - n) n

(* Timestamp of each non-empty lane's most recent record, for the
   watchdog's per-domain staleness check. *)
let lane_last_ts t =
  let out = ref [] in
  Array.iteri
    (fun i lane ->
      if lane.pos > 0 then begin
        let base = ((lane.pos - 1) land t.cap_mask) * words_per_record in
        out := (i, lane.buf.(base)) :: !out
      end)
    t.lanes;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export (the JSON Array Format of the Trace Event
   spec, as consumed by Perfetto and chrome://tracing). Hand-encoded
   like [Snapshot.to_json]: every name below is a fixed identifier, so
   no string escaping is needed. Durations become B/E pairs on the
   writing domain's track; counters become instant events. *)

let buf_event b ~first ~name ~ph ~tid ~ts_us ?args () =
  if not first then Buffer.add_string b ",\n";
  Buffer.add_string b
    (Printf.sprintf
       "  {\"name\":\"%s\",\"cat\":\"nbhash\",\"ph\":\"%s\",\"pid\":0,\"tid\":%d,\"ts\":%.3f"
       name ph tid ts_us);
  (match ph with
  | "i" -> Buffer.add_string b ",\"s\":\"t\""
  | _ -> ());
  (match args with
  | None -> ()
  | Some kvs ->
    Buffer.add_string b ",\"args\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%s" k v))
      kvs;
    Buffer.add_char b '}');
  Buffer.add_char b '}'

let to_chrome_string t =
  let recs = records t in
  let t0 = if Array.length recs = 0 then 0 else recs.(0).ts_ns in
  let t_last =
    if Array.length recs = 0 then 0 else recs.(Array.length recs - 1).ts_ns
  in
  let us ts = float_of_int (ts - t0) /. 1e3 in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[\n";
  let first = ref true in
  let emit ~name ~ph ~tid ~ts_us ?args () =
    buf_event b ~first:!first ~name ~ph ~tid ~ts_us ?args ();
    first := false
  in
  (* One metadata record per distinct domain names its track. *)
  let doms = Hashtbl.create 8 in
  Array.iter
    (fun r ->
      if not (Hashtbl.mem doms r.domain) then begin
        Hashtbl.add doms r.domain ();
        emit ~name:"thread_name" ~ph:"M" ~tid:r.domain ~ts_us:0.0
          ~args:[ ("name", Printf.sprintf "\"domain %d\"" r.domain) ]
          ()
      end)
    recs;
  (* B/E events must nest per track. A ring that wrapped mid-span can
     hold an End with no Begin (dropped) or a Begin with no End (closed
     synthetically at the trace's last timestamp). *)
  let stacks : (int, Event.span list ref) Hashtbl.t = Hashtbl.create 8 in
  let stack dom =
    match Hashtbl.find_opt stacks dom with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks dom s;
      s
  in
  (* Per-site retry counter tracks: every Cas_retry instant carries
     its [Site.t] as the record argument, so the export can rebuild a
     running total per site and emit it as a Perfetto "C" (counter)
     event — one track per contended site, stepping up at each retry.
     Rendered on pid 0 like everything else; the track name carries
     the site so Perfetto groups the series. *)
  let site_totals : (int, int ref) Hashtbl.t = Hashtbl.create 8 in
  let emit_counter r =
    let cell =
      match Hashtbl.find_opt site_totals r.arg with
      | Some c -> c
      | None ->
        let c = ref 0 in
        Hashtbl.add site_totals r.arg c;
        c
    in
    incr cell;
    emit
      ~name:(Printf.sprintf "cas_retry %s" (Site.name r.arg))
      ~ph:"C" ~tid:r.domain ~ts_us:(us r.ts_ns)
      ~args:[ ("retries", string_of_int !cell) ]
      ()
  in
  Array.iter
    (fun r ->
      match (r.phase, r.point) with
      | Instant, Counter Event.Cas_retry ->
        emit ~name:(point_name r.point) ~ph:"i" ~tid:r.domain ~ts_us:(us r.ts_ns)
          ~args:[ ("site", string_of_int r.arg) ]
          ();
        emit_counter r
      | Instant, _ ->
        emit ~name:(point_name r.point) ~ph:"i" ~tid:r.domain ~ts_us:(us r.ts_ns)
          ~args:[ ("arg", string_of_int r.arg) ]
          ()
      | Begin, Span s ->
        let st = stack r.domain in
        st := s :: !st;
        emit ~name:(span_label s) ~ph:"B" ~tid:r.domain ~ts_us:(us r.ts_ns) ()
      | End, Span s -> (
        let st = stack r.domain in
        match !st with
        | top :: rest when top = s ->
          st := rest;
          emit ~name:(span_label s) ~ph:"E" ~tid:r.domain ~ts_us:(us r.ts_ns) ()
        | _ -> () (* orphan End: its Begin was overwritten *))
      | (Begin | End), Counter _ -> ())
    recs;
  Hashtbl.iter
    (fun dom st ->
      List.iter
        (fun s ->
          emit ~name:(span_label s) ~ph:"E" ~tid:dom ~ts_us:(us t_last) ())
        !st)
    stacks;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\",";
  Buffer.add_string b
    (Printf.sprintf "\"otherData\":{\"source\":\"nbhash flight recorder\",\"records\":%d,\"written\":%d}}\n"
       (Array.length recs) (written t));
  Buffer.contents b

let write_chrome oc t = output_string oc (to_chrome_string t)

(* Human-readable records for stall dumps, one per line. *)
let pp_records ppf recs =
  if Array.length recs = 0 then Format.fprintf ppf "(trace empty)@."
  else
    Array.iter
      (fun r ->
        let phase =
          match r.phase with Instant -> "." | Begin -> "B" | End -> "E"
        in
        Format.fprintf ppf "%19d d%-3d %s %-22s arg=%d@." r.ts_ns r.domain
          phase (point_name r.point) r.arg)
      recs

let dump_tail ?(n = 40) ppf t = pp_records ppf (tail t ~n)
