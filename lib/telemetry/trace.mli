(** Flight recorder: per-domain lock-free trace rings.

    Where [Probe] aggregates (counters, log2 histograms), this module
    records *individual events in time order*: each writing domain owns
    a fixed-capacity ring lane of 4-word records [{ts_ns; code; arg;
    domain}] written with plain stores — no CAS on the hot path,
    overwrite-oldest on wrap. An ambient on/off switch mirrors
    [Global]'s probe: with no trace installed every emitter below is
    one load and one branch, and allocates nothing (asserted by a
    test). The instrumentation sites do not call this module directly;
    [Probe.emit]/[add]/[span_begin]/[record_span] forward here, so one
    set of sites feeds both the aggregate and the temporal view, and
    tracing works whether or not a recording probe is installed.

    Lanes are selected by [domain_id mod lanes]; if two domains collide
    on a lane their records may overwrite or tear each other. The
    decoder skips records that do not parse, making the whole recorder
    best-effort: it can lose events, but it cannot block, spin, or
    misrepresent a record it does return. Drain while writers are
    quiescent for an exact stream. *)

type t

val create : ?lanes:int -> ?capacity:int -> unit -> t
(** [lanes] (default 16) and [capacity] records per lane (default
    4096) are rounded up to powers of two. Memory: [lanes * capacity *
    4] words. *)

val install : t -> unit
(** Make [t] the ambient sink read by the emitters. *)

val uninstall : unit -> unit

val active : unit -> t option

val clear : t -> unit
(** Reset all lanes to empty. Not atomic w.r.t. concurrent writers;
    call it quiescent (e.g. between bench sections). *)

(** {1 Hot-path emitters}

    Called by [Probe]; safe to call unconditionally from any domain. *)

val instant : Event.t -> int -> unit
(** [instant ev arg] records a point event. [arg] is an event-specific
    small integer (a key, a count, a chunk index; 0 when the site has
    nothing to say). *)

val span_begin : Event.span -> unit

val span_end : Event.span -> unit
(** Every [span_begin] must be balanced by exactly one [span_end] on
    the same domain ([Probe.record_span] and [Probe.span_abort] both
    count); the exporter closes or drops the unbalanced remainder that
    ring wrap-around can leave behind. *)

(** {1 Draining and merging} *)

type phase = Instant | Begin | End
type point = Counter of Event.t | Span of Event.span

type record = {
  ts_ns : int;
  domain : int;
  seq : int;  (** absolute position in the writing lane *)
  phase : phase;
  point : point;
  arg : int;
}

val point_name : point -> string
(** [Event.to_string] for counters; span histogram keys minus their
    ["_ns"] unit suffix for spans (["resize_ns"] -> ["resize"]). *)

val records : t -> record array
(** All surviving records of all lanes merged into one stream sorted
    by [ts_ns] (ties broken by lane position, preserving per-domain
    order, then by domain). *)

val tail : t -> n:int -> record array
(** [tail t ~n] is the last [n] of [records t] (all of them if fewer
    survive; none if [n <= 0]), found by decoding only each lane's
    newest [n] records: O(lanes * n), whatever the ring capacity. It
    relies on each lane holding one domain's records in time order;
    where two domains share a lane it is best-effort, like the rest of
    the recorder. *)

val pp_records : Format.formatter -> record array -> unit
(** One line per record (timestamp, domain, phase, point, argument),
    or ["(trace empty)"] for none: the format of {!dump_tail}. *)

val written : t -> int
(** Total records ever written (including overwritten ones). *)

type drops = { overwritten : int; torn : int }

val drops : t -> drops
(** Loss accounting across all lanes: [overwritten] is the number of
    records lost to ring wrap-around (total writes minus surviving
    capacity, exact); [torn] is the number of surviving slots whose
    code word does not decode — a record caught mid-write or clobbered
    by a lane-sharing domain. Computed from the same unsynchronized
    snapshot the decoder reads, so best-effort like everything else
    here; [clear] resets both (exporters that need monotone series
    must accumulate across resets themselves). *)

val lane_drops : t -> (int * int * int) array
(** Per-lane [(lane_index, overwritten, torn)] breakdown of [drops]. *)

val lane_last_ts : t -> (int * int) array
(** [(lane_index, ts_ns)] of each non-empty lane's newest record — the
    watchdog's per-domain liveness signal. *)

(** {1 Export} *)

val to_chrome_string : t -> string
(** The merged stream as Chrome trace-event JSON (the "JSON Array
    Format"), loadable in Perfetto ({:https://ui.perfetto.dev}) and
    chrome://tracing: spans become B/E duration slices on the writing
    domain's track, counter events become instants, and a metadata
    record names each track "domain N". Timestamps are microseconds
    relative to the first record. *)

val write_chrome : out_channel -> t -> unit

val dump_tail : ?n:int -> Format.formatter -> t -> unit
(** Human-readable dump of the newest [n] (default 40) merged records
    ({!tail}, printed by {!pp_records}), for watchdog stall reports. *)
