(* The telemetry substrate: sharded counters, the log2 histogram, and
   the exactness guarantees the instrumentation promises — resize
   events equal to resize_stats, keys_migrated equal to cardinality
   over a full migration, and no lost increments under domains. *)

module Tm = Nbhash_telemetry.Global
module Probe = Nbhash_telemetry.Probe
module Event = Nbhash_telemetry.Event
module Counters = Nbhash_telemetry.Counters
module Histogram = Nbhash_telemetry.Histogram
module Snapshot = Nbhash_telemetry.Snapshot

(* Serialise the telemetry tests: they install the ambient probe, so
   they must not interleave with each other (Alcotest runs a suite
   sequentially, but this guards against concurrent runners too). *)
let probe_lock = Mutex.create ()

let with_probe f =
  Mutex.lock probe_lock;
  Fun.protect
    ~finally:(fun () ->
      Tm.install Probe.noop;
      Mutex.unlock probe_lock)
    (fun () ->
      let p = Probe.recording () in
      Tm.install p;
      f p)

(* --- counters --- *)

let test_counters_single () =
  let c = Counters.make () in
  Counters.incr c Event.Cas_retry;
  Counters.add c Event.Keys_migrated 41;
  Counters.incr c Event.Keys_migrated;
  Alcotest.(check int) "cas_retry" 1 (Counters.read c Event.Cas_retry);
  Alcotest.(check int) "keys_migrated" 42 (Counters.read c Event.Keys_migrated);
  Alcotest.(check int) "untouched" 0 (Counters.read c Event.Freeze);
  Counters.reset c;
  Alcotest.(check int) "after reset" 0 (Counters.read c Event.Keys_migrated)

let test_counters_multi_domain () =
  (* Exactness: increments from many domains are never lost, whatever
     shard each domain lands on. *)
  let c = Counters.make ~shards:4 () in
  let domains = 4 and per_domain = 10_000 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Counters.incr c Event.Help_op
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "no lost increments" (domains * per_domain)
    (Counters.read c Event.Help_op)

(* --- histogram --- *)

let test_histogram_percentiles () =
  let h = Histogram.make ~shards:1 () in
  (* 100 observations at 1000ns, 10 at ~1ms: p50 must sit in the 1000ns
     bucket (log2 decade), p99 in the 1ms one. *)
  for _ = 1 to 100 do
    Histogram.observe h 1000
  done;
  for _ = 1 to 10 do
    Histogram.observe h 1_000_000
  done;
  match Histogram.summary h with
  | None -> Alcotest.fail "summary of non-empty histogram"
  | Some s ->
    Alcotest.(check int) "n" 110 s.Nbhash_util.Stats.n;
    let bucket_of x = Nbhash_util.Bits.log2 (int_of_float x) in
    Alcotest.(check int) "p50 decade" (bucket_of 1000.)
      (bucket_of s.Nbhash_util.Stats.median);
    Alcotest.(check int) "p99 decade" (bucket_of 1_000_000.)
      (bucket_of s.Nbhash_util.Stats.p99);
    Alcotest.(check bool) "min <= p50" true
      (s.Nbhash_util.Stats.min <= s.Nbhash_util.Stats.median);
    Alcotest.(check bool) "p50 <= p99" true
      (s.Nbhash_util.Stats.median <= s.Nbhash_util.Stats.p99)

let test_histogram_empty () =
  let h = Histogram.make () in
  Alcotest.(check bool) "empty summary" true (Histogram.summary h = None)

(* --- the noop probe records nothing --- *)

let test_noop_stays_zero () =
  Mutex.lock probe_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock probe_lock)
    (fun () ->
      Tm.install Probe.noop;
      let module S = Nbhash.Tables.LFArrayOpt in
      let t = S.create () in
      let h = S.register t in
      for k = 0 to 999 do
        ignore (S.insert h k)
      done;
      for k = 0 to 999 do
        ignore (S.remove h k)
      done;
      S.unregister h;
      let snap = Tm.snapshot () in
      Alcotest.(check bool) "snapshot is zero" true (Snapshot.is_zero snap);
      Alcotest.(check int) "now_ns is free" 0 (Probe.now_ns Probe.noop))

(* --- instrumented tables: resize events match resize_stats --- *)

(* What the two resize checks below use of a table. Every structure
   built on HNodes provides it: the sets directly, the maps and the
   generic structures through the adapters that follow. *)
module type RESIZABLE = sig
  type t
  type handle

  val create : Nbhash.Policy.t -> t
  val register : t -> handle
  val unregister : handle -> unit
  val insert : handle -> int -> unit
  val force_resize : handle -> grow:bool -> unit
  val resize_stats : t -> Nbhash.Hashset_intf.resize_stats
  val cardinal : t -> int
  val check_invariants : t -> unit
end

module Of_set (S : Nbhash.Hashset_intf.S) : RESIZABLE = struct
  include S

  let create policy = S.create ~policy ()
  let insert h k = ignore (S.insert h k)
end

module Hashmap_r : RESIZABLE = struct
  module M = Nbhash.Hashmap

  type t = int M.t
  type handle = int M.handle

  let create policy = M.create ~policy ()
  let register = M.register
  let unregister = M.unregister
  let insert h k = ignore (M.put h k k)
  let force_resize = M.force_resize
  let resize_stats = M.resize_stats
  let cardinal = M.cardinal
  let check_invariants = M.check_invariants
end

module Wf_hashmap_r : RESIZABLE = struct
  module M = Nbhash.Wf_hashmap

  type t = int M.t
  type handle = int M.handle

  let create policy = M.create ~policy ()
  let register = M.register
  let unregister = M.unregister
  let insert h k = ignore (M.put h k k)
  let force_resize = M.force_resize
  let resize_stats = M.resize_stats
  let cardinal = M.cardinal
  let check_invariants = M.check_invariants
end

module Int_key = struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end

module Generic_set_r : RESIZABLE = struct
  module M = Nbhash_generic.Generic_set.Make (Int_key)

  type t = M.t
  type handle = M.handle

  let create policy = M.create ~policy ()
  let register = M.register
  let unregister = M.unregister
  let insert h k = ignore (M.add h k)
  let force_resize = M.force_resize
  let resize_stats = M.resize_stats
  let cardinal = M.cardinal
  let check_invariants = M.check_invariants
end

module Generic_map_r : RESIZABLE = struct
  module M = Nbhash_generic.Generic_map.Make (Int_key)

  type t = int M.t
  type handle = int M.handle

  let create policy = M.create ~policy ()
  let register = M.register
  let unregister = M.unregister
  let insert h k = ignore (M.put h k k)
  let force_resize = M.force_resize
  let resize_stats = M.resize_stats
  let cardinal = M.cardinal
  let check_invariants = M.check_invariants
end

(* Every table that resizes through Table_core: the Hashset_intf
   variants other than SplitOrder, Michael and Locked, the two maps
   and the two generic structures. They must all report the same
   resize telemetry. *)
let hnode_tables : (string * (module RESIZABLE)) list =
  let set (module S : Nbhash.Hashset_intf.S) = (module Of_set (S) : RESIZABLE) in
  let open Nbhash.Tables in
  [
    ("LFArray", set (module LFArray));
    ("LFArrayOpt", set (module LFArrayOpt));
    ("LFUlist", set (module LFUlist));
    ("LFSorted", set (module LFSorted));
    ("LFList", set (module LFList));
    ("LFFlat", set (module LFFlat));
    ("WFArray", set (module WFArray));
    ("WFList", set (module WFList));
    ("Adaptive", set (module Adaptive));
    ("AdaptiveOpt", set (module AdaptiveOpt));
    ("Hashmap", (module Hashmap_r));
    ("Wf_hashmap", (module Wf_hashmap_r));
    ("Generic_set", (module Generic_set_r));
    ("Generic_map", (module Generic_map_r));
  ]

let resize_storm (module S : RESIZABLE) () =
  with_probe (fun _ ->
      let t = S.create { Nbhash.Policy.default with init_buckets = 4 } in
      let h = S.register t in
      for k = 0 to 499 do
        S.insert h k
      done;
      let domains = 3 in
      let workers =
        List.init domains (fun i ->
            Domain.spawn (fun () ->
                let h = S.register t in
                for j = 0 to 39 do
                  S.insert h (1000 + (i * 100) + j);
                  S.force_resize h ~grow:(j land 1 = 0)
                done;
                S.unregister h))
      in
      List.iter Domain.join workers;
      S.unregister h;
      let snap = Tm.snapshot () in
      let stats = S.resize_stats t in
      Alcotest.(check int) "grow events == grows"
        stats.Nbhash.Hashset_intf.grows
        (Snapshot.get snap Event.Resize_grow);
      Alcotest.(check int) "shrink events == shrinks"
        stats.Nbhash.Hashset_intf.shrinks
        (Snapshot.get snap Event.Resize_shrink);
      Alcotest.(check bool) "some resizes happened" true
        (stats.Nbhash.Hashset_intf.grows > 0);
      S.check_invariants t)

(* keys_migrated counts only winning install CASes, so after exactly
   one full migration it equals the cardinality at migration time. The
   FIRST force_resize of a quiescent pred-less table migrates nothing
   (every bucket is already initialised); it is the second resize that
   freezes and moves every key. *)
let full_migration (module S : RESIZABLE) () =
  with_probe (fun p ->
      let t = S.create { Nbhash.Policy.default with init_buckets = 16 } in
      let h = S.register t in
      let n = 1000 in
      for k = 0 to n - 1 do
        S.insert h k
      done;
      S.force_resize h ~grow:true;
      (* Quiescent: discard the counts of the first resize (which may
         have migrated keys lazily inserted across older tables), then
         measure one whole grow. *)
      Probe.reset p;
      S.force_resize h ~grow:true;
      S.unregister h;
      let snap = Tm.snapshot () in
      Alcotest.(check int) "keys_migrated == cardinal" n
        (Snapshot.get snap Event.Keys_migrated);
      Alcotest.(check int) "cardinal unchanged" n (S.cardinal t);
      Alcotest.(check int) "one grow" 1 (Snapshot.get snap Event.Resize_grow))

(* --- counter flush exactness (the unregister path) --- *)

let test_unregister_flushes () =
  with_probe (fun _ ->
      let module S = Nbhash.Tables.LFArray in
      let policy =
        { (Nbhash.Policy.presized 64) with enabled = false }
      in
      let t = S.create ~policy () in
      (* 3 pending inserts per handle: below the flush threshold, so
         without unregister the approximate count would stay 0. *)
      let handles = List.init 5 (fun _ -> S.register t) in
      List.iteri
        (fun i h ->
          for j = 0 to 2 do
            ignore (S.insert h ((i * 10) + j))
          done)
        handles;
      let before = Tm.snapshot () in
      List.iter S.unregister handles;
      let snap = Tm.snapshot () in
      Alcotest.(check int) "five flushes on teardown" 5
        (Snapshot.get snap Event.Counter_flush
        - Snapshot.get before Event.Counter_flush))

(* --- wait-free tables report helping --- *)

let check_helping_reported snap =
  Alcotest.(check bool) "slowpath entries recorded" true
    (Snapshot.get snap Event.Slowpath_entry >= 100);
  Alcotest.(check bool) "helping recorded" true
    (Snapshot.get snap Event.Help_op > 0);
  match Snapshot.span snap Event.Slowpath_span with
  | None -> Alcotest.fail "slowpath span missing"
  | Some s ->
    Alcotest.(check bool) "span count matches entries" true
      (s.Nbhash_util.Stats.n >= 100)

let test_wf_reports_helping () =
  with_probe (fun _ ->
      let module S = Nbhash.Tables.WFArray in
      let t = S.create ~max_threads:4 () in
      let h = S.register t in
      for k = 0 to 99 do
        ignore (S.insert h k)
      done;
      S.unregister h;
      check_helping_reported (Tm.snapshot ()))

(* The wait-free map runs the same announce-and-help code, so it
   reports helping the way the sets do. *)
let test_wf_hashmap_reports_helping () =
  with_probe (fun _ ->
      let module M = Nbhash.Wf_hashmap in
      let t = M.create ~max_threads:4 () in
      let h = M.register t in
      for k = 0 to 99 do
        ignore (M.put h k k)
      done;
      M.unregister h;
      check_helping_reported (Tm.snapshot ()))

(* --- snapshot serialisation --- *)

let test_snapshot_json () =
  let c, snap =
    Mutex.lock probe_lock;
    Fun.protect
      ~finally:(fun () ->
        Tm.install Probe.noop;
        Mutex.unlock probe_lock)
      (fun () ->
        let p = Probe.recording () in
        Tm.install p;
        Tm.emit Event.Cas_retry;
        Tm.add Event.Keys_migrated 7;
        let start_ns = Tm.now_ns () in
        Tm.record_span Event.Resize_span ~start_ns;
        (Tm.snapshot (), Tm.snapshot ()))
  in
  Alcotest.(check int) "counter read-back" 7 (Snapshot.get c Event.Keys_migrated);
  let json = Snapshot.to_json snap in
  let has needle =
    let n = String.length needle and l = String.length json in
    let rec go i = i + n <= l && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counters object" true (has "\"counters\":{");
  Alcotest.(check bool) "cas_retry:1" true (has "\"cas_retry\":1");
  Alcotest.(check bool) "keys_migrated:7" true (has "\"keys_migrated\":7");
  Alcotest.(check bool) "resize span present" true (has "\"resize_ns\":{\"n\":1");
  Alcotest.(check bool) "zero is zero" true (Snapshot.is_zero Snapshot.zero)

(* The JSON shape downstream tooling (bench_compare, the CI schema
   check, ad-hoc jq) depends on: parseable, top-level counters+spans,
   counter keys exactly Event.all in declaration order (stable across
   snapshots), every number finite. *)
let test_snapshot_json_shape () =
  let module Json = Nbhash_util.Json in
  let snap =
    Mutex.lock probe_lock;
    Fun.protect
      ~finally:(fun () ->
        Tm.install Probe.noop;
        Mutex.unlock probe_lock)
      (fun () ->
        Tm.install (Probe.recording ());
        Tm.emit Event.Freeze;
        Tm.record_span Event.Sweep_span ~start_ns:(Tm.now_ns () - 1000);
        Tm.snapshot ())
  in
  let doc =
    match Json.parse (Snapshot.to_json snap) with
    | Ok d -> d
    | Error e -> Alcotest.failf "snapshot JSON does not parse: %s" e
  in
  Alcotest.(check (option (list string)))
    "top-level shape"
    (Some [ "counters"; "spans" ])
    (Json.keys doc);
  let expected_keys = List.map Event.to_string Event.all in
  let counters = Option.get (Json.member "counters" doc) in
  Alcotest.(check (option (list string)))
    "counter keys: every event, declaration order" (Some expected_keys)
    (Json.keys counters);
  (* Same key order on a zero snapshot: stable across inputs. *)
  let zero_doc = Json.parse_exn (Snapshot.to_json Snapshot.zero) in
  Alcotest.(check (option (list string)))
    "key order input-independent" (Some expected_keys)
    (Json.keys (Option.get (Json.member "counters" zero_doc)));
  let rec all_finite = function
    | Json.Num f -> Float.is_finite f
    | Json.Arr l -> List.for_all all_finite l
    | Json.Obj kvs -> List.for_all (fun (_, v) -> all_finite v) kvs
    | Json.Null | Json.Bool _ | Json.Str _ -> true
  in
  Alcotest.(check bool) "all numbers finite" true (all_finite doc);
  (match Option.bind (Json.member "spans" doc) Json.keys with
  | Some keys ->
    Alcotest.(check bool) "recorded span serialised" true
      (List.mem (Event.span_to_string Event.Sweep_span) keys)
  | None -> Alcotest.fail "spans is not an object");
  (* The [~meta] variant (what /snapshot.json serves) prepends the
     bench meta block and leaves the rest of the shape untouched. *)
  let meta_doc =
    match
      Json.parse (Snapshot.to_json ~meta:(Nbhash_telemetry.Meta.json ()) snap)
    with
    | Ok d -> d
    | Error e -> Alcotest.failf "snapshot+meta JSON does not parse: %s" e
  in
  Alcotest.(check (option (list string)))
    "top-level shape with meta"
    (Some [ "meta"; "counters"; "spans" ])
    (Json.keys meta_doc);
  Alcotest.(check (option (list string)))
    "meta block keys"
    (Some [ "git_rev"; "domains"; "ocaml"; "hostname"; "timestamp" ])
    (Option.bind (Json.member "meta" meta_doc) Json.keys);
  Alcotest.(check (option (list string)))
    "counter keys unchanged under meta" (Some expected_keys)
    (Json.keys (Option.get (Json.member "counters" meta_doc)))

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "counters single-domain" `Quick test_counters_single;
        Alcotest.test_case "counters multi-domain" `Quick
          test_counters_multi_domain;
        Alcotest.test_case "histogram percentiles" `Quick
          test_histogram_percentiles;
        Alcotest.test_case "histogram empty" `Quick test_histogram_empty;
        Alcotest.test_case "noop records nothing" `Quick test_noop_stays_zero;
      ]
      @ List.concat_map
          (fun (name, table) ->
            [
              Alcotest.test_case ("resize storm " ^ name) `Quick
                (resize_storm table);
              Alcotest.test_case ("full migration " ^ name) `Quick
                (full_migration table);
            ])
          hnode_tables
      @ [
        Alcotest.test_case "unregister flushes counters" `Quick
          test_unregister_flushes;
        Alcotest.test_case "wait-free helping reported" `Quick
          test_wf_reports_helping;
        Alcotest.test_case "wait-free map helping reported" `Quick
          test_wf_hashmap_reports_helping;
        Alcotest.test_case "snapshot json" `Quick test_snapshot_json;
        Alcotest.test_case "snapshot json shape" `Quick
          test_snapshot_json_shape;
      ] );
  ]
