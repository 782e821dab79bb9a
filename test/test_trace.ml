(* The flight recorder and its liveness watchdog.

   Covers the properties ISSUE 4 promises: ring wrap-around keeps the
   newest records, the multi-lane merge is globally time-ordered, the
   disabled hot path allocates nothing, the Chrome exporter emits
   well-formed JSON, and the watchdog distinguishes a never-helping
   (deliberately broken) wait-free table from the shipping variants. *)

module Trace = Nbhash_telemetry.Trace
module Watchdog = Nbhash_telemetry.Watchdog
module Event = Nbhash_telemetry.Event
module Global = Nbhash_telemetry.Global
module Probe = Nbhash_telemetry.Probe
module Json = Nbhash_util.Json

(* The trace sink is ambient (process-global), like the probe: scope
   every installation and never leave one behind. *)
let with_trace ?lanes ?capacity f =
  let tr = Trace.create ?lanes ?capacity () in
  Trace.install tr;
  Fun.protect ~finally:Trace.uninstall (fun () -> f tr)

(* --- record-code bands --- *)

(* The ring encodes records as: instants 1..63, span Begins 64..127,
   span Ends 128..191. Trace's module initialiser refuses to load if
   the taxonomy outgrows a band; this test states the same bound so
   the 64th counter's author finds the encoding constraint by name
   instead of by decoder corruption. *)
let test_code_bands () =
  Alcotest.(check bool)
    "Event.count fits the instant band (< 64)" true (Event.count < 64);
  Alcotest.(check bool)
    "Event.span_count fits the Begin/End bands (<= 64)" true
    (Event.span_count <= 64)

(* --- ring wrap-around --- *)

let test_wraparound () =
  with_trace ~lanes:1 ~capacity:8 (fun tr ->
      for i = 0 to 19 do
        Trace.instant Event.Cas_retry i
      done;
      Alcotest.(check int) "written counts every store" 20 (Trace.written tr);
      let rs = Trace.records tr in
      Alcotest.(check int) "capacity bounds survivors" 8 (Array.length rs);
      Alcotest.(check (list int))
        "the newest records survive, oldest first"
        [ 12; 13; 14; 15; 16; 17; 18; 19 ]
        (Array.to_list (Array.map (fun r -> r.Trace.arg) rs)))

let test_clear () =
  with_trace (fun tr ->
      Trace.instant Event.Freeze 1;
      Trace.clear tr;
      Alcotest.(check int) "cleared" 0 (Array.length (Trace.records tr));
      Trace.instant Event.Freeze 2;
      Alcotest.(check int) "usable after clear" 1
        (Array.length (Trace.records tr)))

(* --- loss accounting --- *)

(* Overwrite-oldest is silent in the ring itself; [drops] makes it
   countable: everything written past capacity is an overwrite, and a
   clear resets the account along with the lanes. *)
let test_drops () =
  with_trace ~lanes:1 ~capacity:8 (fun tr ->
      Alcotest.(check bool) "fresh ring drops nothing" true
        (let d = Trace.drops tr in
         d.Trace.overwritten = 0 && d.Trace.torn = 0);
      for i = 0 to 19 do
        Trace.instant Event.Cas_retry i
      done;
      let d = Trace.drops tr in
      Alcotest.(check int) "overwritten = written - capacity" 12
        d.Trace.overwritten;
      Alcotest.(check int) "single-writer lane tears nothing" 0 d.Trace.torn;
      (* The per-lane breakdown sums to the aggregate. *)
      let by_lane = Trace.lane_drops tr in
      Alcotest.(check int) "lane sum matches"
        d.Trace.overwritten
        (Array.fold_left (fun acc (_, o, _) -> acc + o) 0 by_lane);
      Trace.clear tr;
      let d = Trace.drops tr in
      Alcotest.(check int) "clear resets the account" 0 d.Trace.overwritten)

(* --- multi-domain merge ordering --- *)

let test_merge_ordering () =
  let writers = 4 and per_writer = 200 in
  with_trace ~lanes:64 (fun tr ->
      let ds =
        List.init writers (fun _ ->
            Domain.spawn (fun () ->
                for i = 0 to per_writer - 1 do
                  Trace.instant Event.Help_op i
                done;
                (Domain.self () :> int)))
      in
      let ids = List.map Domain.join ds in
      let rs = Trace.records tr in
      Alcotest.(check int) "nothing lost below capacity"
        (writers * per_writer) (Array.length rs);
      Array.iteri
        (fun i r ->
          if i > 0 && rs.(i - 1).Trace.ts_ns > r.Trace.ts_ns then
            Alcotest.failf "timestamps decrease at %d: %d > %d" i
              rs.(i - 1).Trace.ts_ns r.Trace.ts_ns)
        rs;
      (* Per-domain order survives the merge: each writer's args come
         back as exactly 0..per_writer-1 in order. *)
      List.iter
        (fun id ->
          let args =
            Array.to_list rs
            |> List.filter (fun r -> r.Trace.domain = id)
            |> List.map (fun r -> r.Trace.arg)
          in
          Alcotest.(check (list int))
            (Printf.sprintf "domain %d order preserved" id)
            (List.init per_writer Fun.id) args)
        ids;
      let lanes = Trace.lane_last_ts tr in
      Alcotest.(check int) "every writer lane reports liveness" writers
        (Array.length lanes))

(* --- the bounded tail --- *)

(* [Trace.tail t ~n] reads only each lane's newest [n] records; it must
   still be exactly the newest [n] of the full merge, whatever the ring
   holds. *)
let record_t =
  Alcotest.testable
    (fun ppf r -> Trace.pp_records ppf [| r |])
    ( = )

let check_tail ~what tr =
  let all = Trace.records tr in
  let len = Array.length all in
  List.iter
    (fun n ->
      let k = min n len in
      Alcotest.(check (array record_t))
        (Printf.sprintf "%s: tail ~n:%d = last %d of records" what n k)
        (Array.sub all (len - k) k)
        (Trace.tail tr ~n))
    [ 0; 1; 3; 8; 50; len; len + 7 ]

let test_tail_matches_records () =
  with_trace ~lanes:1 ~capacity:8 (fun tr ->
      check_tail ~what:"empty ring" tr;
      for i = 0 to 4 do
        Trace.instant Event.Cas_retry i
      done;
      check_tail ~what:"one domain" tr;
      for i = 5 to 19 do
        Trace.instant Event.Cas_retry i
      done;
      check_tail ~what:"one domain, wrapped" tr;
      Trace.clear tr;
      check_tail ~what:"cleared" tr;
      Trace.instant Event.Freeze 1;
      check_tail ~what:"refilled after clear" tr);
  (* Several domains with different write counts: some lanes wrapped,
     some not, interleaved in time. *)
  with_trace ~lanes:16 ~capacity:16 (fun tr ->
      let ds =
        List.init 3 (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to (d * 20) + 5 do
                  Trace.instant Event.Help_op i;
                  if i land 3 = 0 then Domain.cpu_relax ()
                done))
      in
      List.iter Domain.join ds;
      Trace.span_begin Event.Resize_span;
      Trace.span_end Event.Resize_span;
      check_tail ~what:"several domains" tr;
      Trace.clear tr;
      check_tail ~what:"several domains, cleared" tr)

(* --- the disabled path allocates nothing --- *)

let test_disabled_path_no_alloc () =
  Global.install Probe.noop;
  Trace.uninstall ();
  (* Warm up so any one-time allocation is off the books. *)
  for i = 0 to 999 do
    Global.emit Event.Cas_retry;
    Global.emit_arg Event.Help_op i;
    let s = Global.span_begin Event.Resize_span in
    Global.record_span Event.Resize_span ~start_ns:s
  done;
  let before = Gc.minor_words () in
  for i = 0 to 99_999 do
    Global.emit Event.Cas_retry;
    Global.emit_arg Event.Help_op i;
    let s = Global.span_begin Event.Resize_span in
    Global.record_span Event.Resize_span ~start_ns:s
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256. then
    Alcotest.failf "disabled telemetry hot path allocated %.0f minor words"
      delta

(* --- Chrome trace-event export --- *)

let test_chrome_export () =
  let json =
    with_trace (fun tr ->
        Trace.instant Event.Cas_retry 7;
        (* A balanced span, an orphan end (dropped), and an unclosed
           begin (closed at the last timestamp by the exporter). *)
        Trace.span_begin Event.Resize_span;
        Trace.span_end Event.Resize_span;
        Trace.span_end Event.Sweep_span;
        Trace.span_begin Event.Slowpath_span;
        Trace.instant Event.Freeze 3;
        Trace.to_chrome_string tr)
  in
  let doc =
    match Json.parse json with
    | Ok d -> d
    | Error e -> Alcotest.failf "exporter emitted invalid JSON: %s" e
  in
  let events =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  let phase e =
    match Option.bind (Json.member "ph" e) Json.to_str with
    | Some p -> p
    | None -> Alcotest.fail "event without ph"
  in
  let count p = List.length (List.filter (fun e -> phase e = p) events) in
  Alcotest.(check int) "two instants" 2 (count "i");
  Alcotest.(check int) "begins balanced by exporter" (count "B") (count "E");
  Alcotest.(check bool) "track metadata present" true (count "M" >= 1);
  Alcotest.(check int) "orphan end dropped, unclosed begin closed" 2
    (count "B");
  List.iter
    (fun e ->
      if phase e <> "M" then
        match Option.bind (Json.member "ts" e) Json.to_num with
        | Some ts when Float.is_finite ts && ts >= 0. -> ()
        | _ -> Alcotest.fail "event without finite non-negative ts")
    events

(* --- watchdog: negative control, then the shipping tables --- *)

(* A broken wait-free thread: announce an operation in the shared
   announce array and then never drive it — exactly the failure the
   announce/helping protocol (Figure 4) is supposed to make
   impossible. The watchdog must report it, and must stop reporting
   once a helper completes the operation. *)
module W = Nbhash.Wf_common.Make (Nbhash_fset.Wf_array_fset)
module A = W.A
module F = Nbhash_fset.Wf_array_fset

let test_watchdog_negative_control () =
  let t = W.create_t Nbhash.Policy.default 4 in
  let a = t.W.announce in
  let h = W.register t in
  let prio = Atomic.fetch_and_add a.A.counter 1 in
  let op = F.make_op Nbhash_fset.Fset_intf.Ins 42 ~prio in
  Atomic.set a.A.slots.(h.W.tid) op;
  let wd =
    Watchdog.create ~max_age_ns:5_000_000
      [ { Watchdog.name = "broken-wf"; pending = (fun () -> A.pending_ops a) } ]
  in
  Alcotest.(check (list string))
    "first poll only starts the clock" []
    (List.map (fun s -> s.Watchdog.source) (Watchdog.poll wd));
  Unix.sleepf 0.05;
  (match Watchdog.poll wd with
  | [] -> Alcotest.fail "never-helped announce did not trip the watchdog"
  | [ s ] ->
    Alcotest.(check string) "source" "broken-wf" s.Watchdog.source;
    Alcotest.(check int) "tid" h.W.tid s.Watchdog.tid;
    Alcotest.(check int) "token is the bakery priority" prio s.Watchdog.token;
    Alcotest.(check bool) "age exceeds the limit" true
      (s.Watchdog.age_ns >= 5_000_000)
  | ss -> Alcotest.failf "expected one stall, got %d" (List.length ss));
  (* A helping thread arrives: the operation completes and the
     watchdog forgets it. *)
  A.help_up_to a t.W.core ~prio;
  Alcotest.(check bool) "helped op is done" true (F.op_is_done op);
  Alcotest.(check int) "completed op clears the stall" 0
    (List.length (Watchdog.poll wd));
  Unix.sleepf 0.01;
  Alcotest.(check int) "and it stays clear" 0 (List.length (Watchdog.poll wd))

(* Slot reuse must restart the age clock: a NEW operation by the same
   tid (fresh token) is not the old stall. *)
let test_watchdog_token_reuse () =
  let t = W.create_t Nbhash.Policy.default 4 in
  let a = t.W.announce in
  let h = W.register t in
  let announce k =
    let prio = Atomic.fetch_and_add a.A.counter 1 in
    let op = F.make_op Nbhash_fset.Fset_intf.Ins k ~prio in
    Atomic.set a.A.slots.(h.W.tid) op;
    op
  in
  let wd =
    Watchdog.create ~max_age_ns:5_000_000
      [ { Watchdog.name = "reuse"; pending = (fun () -> A.pending_ops a) } ]
  in
  let op1 = announce 1 in
  ignore (Watchdog.poll wd);
  Unix.sleepf 0.02;
  Alcotest.(check int) "old op stalls" 1 (List.length (Watchdog.poll wd));
  A.help_up_to a t.W.core ~prio:(F.op_prio op1);
  ignore (announce 2);
  (* Same tid, new token: the age clock must restart, so an immediate
     poll reports nothing even though the slot never went inert. *)
  Alcotest.(check int) "fresh op is not the old stall" 0
    (List.length (Watchdog.poll wd))

(* The positive side of the control: every shipping table runs a
   short storm watchdog-clean (helping works, nothing stays pending
   for seconds). *)
let churn_watchdog_clean (module S : Nbhash.Hashset_intf.S) () =
  let t =
    S.create
      ~policy:{ Nbhash.Policy.default with init_buckets = 4 }
      ~max_threads:8 ()
  in
  let wd =
    Watchdog.create ~max_age_ns:2_000_000_000
      [ { Watchdog.name = S.name; pending = (fun () -> S.pending_ops t) } ]
  in
  let stop = Atomic.make false in
  let poller =
    Domain.spawn (fun () ->
        Watchdog.run ~interval:0.005 ~stop:(fun () -> Atomic.get stop) wd)
  in
  let ds =
    List.init 3 (fun d ->
        Domain.spawn (fun () ->
            let h = S.register t in
            for i = 0 to 4_999 do
              let k = (d * 10_000) + (i land 1023) in
              if i land 3 = 3 then ignore (S.remove h k)
              else ignore (S.insert h k);
              if i land 255 = 255 then S.force_resize h ~grow:(i land 256 = 0)
            done;
            S.unregister h))
  in
  List.iter Domain.join ds;
  Atomic.set stop true;
  let stalls = Domain.join poller in
  S.check_invariants t;
  Alcotest.(check int) "watchdog-clean storm" 0 stalls

let test_stale_lanes () =
  with_trace (fun tr ->
      Alcotest.(check (list (pair int int)))
        "no lanes, no staleness" []
        (Watchdog.stale_lanes ~max_age_ns:1 tr);
      Trace.instant Event.Freeze 0;
      Unix.sleepf 0.02;
      (match Watchdog.stale_lanes ~max_age_ns:5_000_000 tr with
      | [ (_, age) ] ->
        Alcotest.(check bool) "age measured" true (age >= 5_000_000)
      | l -> Alcotest.failf "expected one stale lane, got %d" (List.length l));
      Trace.instant Event.Freeze 1;
      Alcotest.(check (list (pair int int)))
        "fresh record revives the lane" []
        (Watchdog.stale_lanes ~max_age_ns:1_000_000_000 tr))

let suite =
  [
    ( "trace",
      [
        Alcotest.test_case "record-code bands" `Quick test_code_bands;
        Alcotest.test_case "ring wrap-around" `Quick test_wraparound;
        Alcotest.test_case "clear" `Quick test_clear;
        Alcotest.test_case "drop accounting" `Quick test_drops;
        Alcotest.test_case "multi-domain merge ordering" `Quick
          test_merge_ordering;
        Alcotest.test_case "tail is the last n of records" `Quick
          test_tail_matches_records;
        Alcotest.test_case "disabled path allocates nothing" `Quick
          test_disabled_path_no_alloc;
        Alcotest.test_case "chrome export well-formed" `Quick
          test_chrome_export;
        Alcotest.test_case "watchdog negative control" `Quick
          test_watchdog_negative_control;
        Alcotest.test_case "watchdog token reuse" `Quick
          test_watchdog_token_reuse;
        Alcotest.test_case "watchdog stale lanes" `Quick test_stale_lanes;
        Alcotest.test_case "watchdog-clean WFArray" `Quick
          (churn_watchdog_clean (module Nbhash.Tables.WFArray));
        Alcotest.test_case "watchdog-clean WFList" `Quick
          (churn_watchdog_clean (module Nbhash.Tables.WFList));
        Alcotest.test_case "watchdog-clean Adaptive" `Quick
          (churn_watchdog_clean (module Nbhash.Tables.Adaptive));
        Alcotest.test_case "watchdog-clean AdaptiveOpt" `Quick
          (churn_watchdog_clean (module Nbhash.Tables.AdaptiveOpt));
        Alcotest.test_case "watchdog-clean LFArrayOpt" `Quick
          (churn_watchdog_clean (module Nbhash.Tables.LFArrayOpt));
      ] );
  ]
