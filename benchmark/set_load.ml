(* The two table workloads, each run over the six-table roster with 2
   worker domains (the calling domain and one spawned per trial).

   set-read-heavy: every table starts from [Policy.default] holding
   every even key below 2^16. Domain d owns the keys k with k mod 2 =
   d and replays its own pre-generated stream: 2^20 ops of 90%
   contains, 5% insert and 5% remove over uniform keys, then fix-up ops
   that return its keys to the start set, padded with contains to a
   whole number of 1024-op blocks. So every call's result is known in
   advance, and so is the cardinal at any block boundary. A trial runs
   each domain on for 100 ms from where its stream stopped last time.

   set-grow-shrink: starting from a 1-bucket [Policy.default] table,
   domain d inserts its 2^16 keys (k mod 2 = d, k < 2^17) in a
   pre-generated order and then removes them in another, so the table
   grows to 2^17 keys, more than fits in L2, and drains again. A trial
   is one such cycle; every call must return true.

   Trials rotate over the six tables, round after round, until the
   pass's time is spent. After every trial the table's cardinal must
   be the expected one and [check_invariants] must hold. One call in 64
   is timed; in a traced pass one in 4096 also records a span under
   its trial's span.

   The machine is shared, and other tenants' load only ever slows a
   trial down, for seconds at a time. So a table's figure is the
   better decile over its trials: the upper decile of throughput, the
   lower decile of latency (Quant.best). *)

module Clock = Nbhash_util.Clock
module X = Nbhash_util.Xoshiro
module Barrier = Nbhash_workload.Barrier
module Samples = Quant.Samples

let roster : (string * (module Nbhash.Hashset_intf.S)) list =
  [
    ("LFArray", (module Nbhash.Tables.LFArray));
    ("LFArrayOpt", (module Nbhash.Tables.LFArrayOpt));
    ("WFArray", (module Nbhash.Tables.WFArray));
    ("AdaptiveOpt", (module Nbhash.Tables.AdaptiveOpt));
    ("LFFlat", (module Nbhash.Tables.LFFlat));
    ("SplitOrder", (module Nbhash_splitorder.Split_ordered));
  ]

let () = assert (List.map fst roster = Decl.tables)
let domains = 2
let sample_mask = 63
let span_mask = 4095
let block = 1024
let sample_cap = 1 lsl 17
let trial_ns = 100_000_000
let setup_reps = 5

(* The paper's shrink claim: a drained dynamic table falls back to a
   few buckets. SplitOrder never shrinks. *)
let shrunk_buckets = 8

let sp_trial = Spans.intern "set.trial"

let sp_call =
  [|
    Spans.intern "table.contains";
    Spans.intern "table.insert";
    Spans.intern "table.remove";
  |]

(* The second worker domain lives for the whole run and takes one job
   at a time: spawning a domain per trial makes the heap grow with the
   number of trials. *)
type partner = {
  m : Mutex.t;
  c : Condition.t;
  mutable job : (unit -> unit) option;
  mutable finished : bool;
}

let partner =
  lazy
    (let p = { m = Mutex.create (); c = Condition.create (); job = None; finished = true } in
     ignore
       (Domain.spawn (fun () ->
            while true do
              Mutex.lock p.m;
              while p.job = None do
                Condition.wait p.c p.m
              done;
              let f = Option.get p.job in
              p.job <- None;
              Mutex.unlock p.m;
              f ();
              Mutex.lock p.m;
              p.finished <- true;
              Condition.broadcast p.c;
              Mutex.unlock p.m
            done));
     p)

(* [f 0] on the calling domain and [f 1] on the partner, together. *)
let on_domains f =
  let p = Lazy.force partner in
  let r1 = ref (Error Exit) in
  Mutex.lock p.m;
  p.finished <- false;
  p.job <- Some (fun () -> r1 := try Ok (f 1) with e -> Error e);
  Condition.broadcast p.c;
  Mutex.unlock p.m;
  let r0 = f 0 in
  Mutex.lock p.m;
  while not p.finished do
    Condition.wait p.c p.m
  done;
  Mutex.unlock p.m;
  match !r1 with Ok r1 -> [| r0; r1 |] | Error e -> raise e

let rotate r l =
  let n = r mod List.length l in
  List.filteri (fun i _ -> i >= n) l @ List.filteri (fun i _ -> i < n) l

(* --- inputs --- *)

let rh_keys = 1 lsl 15 (* per domain: key 2j + d for j < rh_keys *)
let rh_random_ops = 1 lsl 20

(* An op is key lsl 3 lor kind lsl 1 lor expected result; kinds are
   0 contains, 1 insert, 2 remove. *)
type stream = {
  ops : int array;
  present_at : int array;  (* this domain's present keys at each block start *)
}

let read_heavy_stream rng d =
  let start_present = d = 0 in
  let present = Array.make rh_keys start_present in
  let count = ref (if start_present then rh_keys else 0) in
  let cap = rh_random_ops + rh_keys + block in
  let ops = Array.make cap 0 and counts = Array.make (cap / block) 0 in
  let n = ref 0 in
  let emit k kind expect =
    if !n mod block = 0 then counts.(!n / block) <- !count;
    ops.(!n) <- (k lsl 3) lor (kind lsl 1) lor Bool.to_int expect;
    incr n
  in
  let apply j kind =
    let k = (2 * j) + d in
    let was = present.(j) in
    match kind with
    | 0 -> emit k 0 was
    | 1 ->
      emit k 1 (not was);
      if not was then begin
        present.(j) <- true;
        incr count
      end
    | _ ->
      emit k 2 was;
      if was then begin
        present.(j) <- false;
        decr count
      end
  in
  for _ = 1 to rh_random_ops do
    let j = X.below rng rh_keys in
    let r = X.below rng 100 in
    apply j (if r < 90 then 0 else if r < 95 then 1 else 2)
  done;
  for j = 0 to rh_keys - 1 do
    if present.(j) <> start_present then apply j (if present.(j) then 2 else 1)
  done;
  while !n mod block <> 0 do
    apply (X.below rng rh_keys) 0
  done;
  { ops = Array.sub ops 0 !n; present_at = Array.sub counts 0 (!n / block) }

let gs_keys = 1 lsl 16 (* per domain *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = X.below rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Per domain: the insert order and the remove order of its keys. *)
let grow_shrink_orders rng d =
  let keys () = Array.init gs_keys (fun j -> (2 * j) + d) in
  (shuffle rng (keys ()), shuffle rng (keys ()))

(* --- one table --- *)

type trial = {
  calls : int;
  wrong : int;
  ns : int;  (* trial wall time *)
  grows : int;
  shrinks : int;
  buckets : int;  (* after the trial *)
}

(* A table under test, kept across trials. [run] performs one trial,
   filling [samples] (per domain: contains, updates) and, when given,
   the span buffers (per domain). [memory] is the table's live heap
   words and the keys it held at that point: at the end for
   read-heavy, at the peak for grow-shrink. *)
type subject = {
  name : string;
  run :
    samples:Samples.t array array -> spans:Spans.buf array option -> trial;
  memory : unit -> int * int;
}

module Drive (T : Nbhash.Hashset_intf.S) = struct
  let[@inline] call h kind k =
    if kind = 0 then T.contains h k
    else if kind = 1 then T.insert h k
    else T.remove h k

  let[@inline] timed h kind k ~calls ~(samples : Samples.t array) ~spans ~parent =
    if calls land sample_mask <> 0 then call h kind k
    else begin
      let t0 = Clock.now_ns () in
      let r = call h kind k in
      let t1 = Clock.now_ns () in
      Samples.add samples.(min kind 1) (t1 - t0);
      (match spans with
      | Some b when calls land span_mask = 0 ->
        ignore (Spans.record b ~name:sp_call.(kind) ~start:t0 ~stop:t1 ~parent ())
      | _ -> ());
      r
    end

  (* One domain's share of a trial: [work h ~parent] makes the calls
     and returns (calls, wrong, result); this times it between
     barriers. *)
  let share t ~barrier ~spans work =
    let h = T.register t in
    Barrier.wait barrier;
    let first = Clock.now_ns () in
    let parent =
      match spans with
      | Some b -> Spans.opened b ~name:sp_trial ~start:first
      | None -> -1
    in
    let calls, wrong, result = work h ~parent in
    let last = Clock.now_ns () in
    Option.iter (fun b -> Spans.close b parent ~stop:last) spans;
    Barrier.wait barrier;
    T.unregister h;
    (calls, wrong, first, last, result)

  let trial_of ?(pause = 0) t out r ~before ~expected_card =
    let after = T.resize_stats t in
    let card = T.cardinal t in
    Outcome.check out (card = expected_card)
      (Printf.sprintf "%s: cardinal %d, expected %d" T.name card expected_card);
    (match T.check_invariants t with
    | () -> Outcome.check out true ""
    | exception Failure m -> Outcome.check out false (T.name ^ ": " ^ m));
    let sum f = Array.fold_left (fun acc x -> acc + f x) 0 r in
    {
      calls = sum (fun (c, _, _, _, _) -> c);
      wrong = sum (fun (_, w, _, _, _) -> w);
      ns =
        Array.fold_left (fun acc (_, _, _, l, _) -> max acc l) 0 r
        - Array.fold_left (fun acc (_, _, f, _, _) -> min acc f) max_int r
        - pause;
      grows = after.grows - before.Nbhash.Hashset_intf.grows;
      shrinks = after.shrinks - before.shrinks;
      buckets = T.bucket_count t;
    }

  let live_words t = Obj.reachable_words (Obj.repr t)

  (* Replays each domain's stream from where the previous trial left
     it, in whole blocks, until [trial_ns] has passed. *)
  let read_heavy out (streams : stream array) =
    let t = T.create ~policy:Nbhash.Policy.default () in
    let h = T.register t in
    for j = 0 to rh_keys - 1 do
      ignore (T.insert h (2 * j))
    done;
    T.unregister h;
    let pos = Array.make domains 0 in
    let run ~samples ~spans =
      let before = T.resize_stats t in
      let barrier = Barrier.create domains in
      let r =
        on_domains (fun d ->
            let s = streams.(d) in
            let samples = samples.(d) and spans = Option.map (fun a -> a.(d)) spans in
            share t ~barrier ~spans (fun h ~parent ->
                let deadline = Clock.now_ns () + trial_ns in
                let ops = s.ops in
                let n = Array.length ops in
                let p = ref pos.(d) and calls = ref 0 and wrong = ref 0 in
                let continue = ref true in
                while !continue do
                  for _ = 1 to block do
                    let op = Array.unsafe_get ops !p in
                    let got =
                      timed h ((op lsr 1) land 3) (op lsr 3) ~calls:!calls ~samples
                        ~spans ~parent
                    in
                    if got <> (op land 1 = 1) then incr wrong;
                    incr calls;
                    incr p
                  done;
                  if !p = n then p := 0;
                  if Clock.now_ns () >= deadline then continue := false
                done;
                (!calls, !wrong, !p)))
      in
      Array.iteri (fun d (_, _, _, _, p) -> pos.(d) <- p) r;
      let expected_card =
        Array.fold_left ( + ) 0
          (Array.mapi (fun d p -> streams.(d).present_at.(p / block)) pos)
      in
      trial_of t out r ~before ~expected_card
    in
    { name = T.name; run; memory = (fun () -> (live_words t, T.cardinal t)) }

  (* One grow-and-drain cycle; every call must return true. The
     domains meet at the peak, where the first trial measures the
     table's live words; that pause is not timed. *)
  let grow_shrink out orders =
    let t = T.create ~policy:Nbhash.Policy.default () in
    let peak_words = ref 0 in
    let run ~samples ~spans =
      let before = T.resize_stats t in
      let barrier = Barrier.create domains in
      let r =
        on_domains (fun d ->
            let ins, rem = orders.(d) in
            let samples = samples.(d) and spans = Option.map (fun a -> a.(d)) spans in
            share t ~barrier ~spans (fun h ~parent ->
                let calls = ref 0 and wrong = ref 0 in
                let pass (keys : int array) kind =
                  for i = 0 to Array.length keys - 1 do
                    if
                      not
                        (timed h kind (Array.unsafe_get keys i) ~calls:!calls ~samples
                           ~spans ~parent)
                    then incr wrong;
                    incr calls
                  done
                in
                pass ins 1;
                Barrier.wait barrier;
                let p0 = Clock.now_ns () in
                if d = 0 && !peak_words = 0 then peak_words := live_words t;
                Barrier.wait barrier;
                let pause = Clock.now_ns () - p0 in
                pass rem 2;
                (!calls, !wrong, pause)))
      in
      let _, _, _, _, pause = r.(0) in
      trial_of ~pause t out r ~before ~expected_card:0
    in
    {
      name = T.name;
      run;
      memory = (fun () -> (!peak_words, domains * gs_keys));
    }
end

(* --- the workloads --- *)

(* Per-trial values keyed "table/quantity". *)
let note stats key v =
  Hashtbl.replace stats key
    (v :: Option.value ~default:[] (Hashtbl.find_opt stats key))

let best stats key better = Quant.best better (Array.of_list (Hashtbl.find stats key))


(* Across the roster: the geometric mean of the tables' figures. *)
let across stats what better =
  Quant.geomean
    (Array.of_list
       (List.map (fun (name, _) -> best stats (name ^ "/" ^ what) better) roster))

let median_setup f =
  let times =
    List.init setup_reps (fun _ ->
        Gc.full_major ();
        let t0 = Clock.now_ns () in
        let v = f () in
        let dt = float (Clock.now_ns () - t0) /. 1e9 in
        (dt, v))
  in
  (Quant.median_list (List.map fst times), snd (List.hd (List.rev times)))

(* Run rounds of one trial per subject, rotating the order, until
   [seconds] is spent (at least 3 rounds); record each trial. *)
let rounds out subjects ~seconds ~spans ~record =
  let samples =
    Array.init domains (fun _ -> [| Samples.create sample_cap; Samples.create sample_cap |])
  in
  let scratch = Array.make (domains * 2 * sample_cap) 0 in
  (* Percentiles of the trial's samples of the given classes
     (0 contains, 1 updates). *)
  let pct classes ps =
    Samples.percentiles ~scratch
      (List.concat_map (fun d -> List.map (fun c -> samples.(d).(c)) classes)
         (List.init domains Fun.id))
      ps
  in
  let stats = Hashtbl.create 64 in
  let t0 = Clock.now_ns () in
  let budget = int_of_float (seconds *. 1e9) in
  let r = ref 0 in
  while
    !r < 3
    || (let spent = Clock.now_ns () - t0 in
        spent + (spent / !r) <= budget)
  do
    List.iter
      (fun s ->
        Array.iter (Array.iter Samples.clear) samples;
        let tr = s.run ~samples ~spans in
        Outcome.add out ~attempted:tr.calls ~failed:tr.wrong ~what:s.name;
        let note what v = note stats (s.name ^ "/" ^ what) v in
        note "mops" (float tr.calls /. float tr.ns *. 1e3);
        record s tr pct note)
      (rotate !r subjects);
    incr r
  done;
  stats

let set_layer out stats metrics =
  List.iter
    (fun (metric, what) ->
      let m = Decl.find (metric ^ "." ^ List.hd Decl.tables) in
      List.iter
        (fun (name, _) ->
          Outcome.set out (metric ^ "." ^ name) (best stats (name ^ "/" ^ what) m.better))
        roster)
    metrics

(* The live heap of the six tables, MiB. *)
let mem_mb subjects =
  float (List.fold_left (fun acc s -> acc + fst (s.memory ())) 0 subjects)
  *. float (Sys.word_size / 8)
  /. 1048576.

let e2e stats =
  {
    Outcome.mops = across stats "mops" Higher;
    p50_us = across stats "p50" Lower /. 1e3;
    p99_us = across stats "p99" Lower /. 1e3;
  }

let read_heavy out ~seed =
  let setup () =
    let streams =
      Array.init domains (fun d -> read_heavy_stream (X.create ((seed * 7919) + d)) d)
    in
    List.map
      (fun (name, (module T : Nbhash.Hashset_intf.S)) ->
        let module D = Drive (T) in
        { (D.read_heavy out streams) with name })
      roster
  in
  let setup_s, subjects = median_setup setup in
  let measure ~seconds ~spans =
    let stats =
      rounds out subjects ~seconds ~spans ~record:(fun _ tr pct note ->
          let two classes (a, b) =
            match pct classes [ 50.; 99. ] with
            | [ p50; p99 ] ->
              note a p50;
              note b p99
            | _ -> assert false
          in
          two [ 0; 1 ] ("p50", "p99");
          if spans <> None then begin
            two [ 0 ] ("c50", "c99");
            two [ 1 ] ("u50", "u99");
            note "resizes" (float (tr.grows + tr.shrinks))
          end)
    in
    if spans <> None then begin
      List.iter
        (fun s ->
          let words, keys = s.memory () in
          note stats (s.name ^ "/words") (float words /. float keys))
        subjects;
      set_layer out stats
        [
          ("table.mops", "mops");
          ("table.contains_p50_ns", "c50");
          ("table.contains_p99_ns", "c99");
          ("table.update_p50_ns", "u50");
          ("table.update_p99_ns", "u99");
          ("table.words_per_key", "words");
        ];
      (* Every resize inside the measured trials, not a per-trial
         figure: the steady state must really be steady. *)
      List.iter
        (fun (name, _) ->
          Outcome.set out ("table.resizes." ^ name)
            (List.fold_left ( +. ) 0. (Hashtbl.find stats (name ^ "/resizes"))))
        roster
    end;
    e2e stats
  in
  { Outcome.setup_s; measure; finish = (fun () -> mem_mb subjects) }

let grow_shrink out ~seed =
  let setup () =
    let orders =
      Array.init domains (fun d ->
          grow_shrink_orders (X.create ((seed * 7919) + 100 + d)) d)
    in
    List.map
      (fun (name, (module T : Nbhash.Hashset_intf.S)) ->
        let module D = Drive (T) in
        { (D.grow_shrink out orders) with name })
      roster
  in
  let setup_s, subjects = median_setup setup in
  let measure ~seconds ~spans =
    let stats =
      rounds out subjects ~seconds ~spans ~record:(fun s tr pct note ->
          if s.name <> "SplitOrder" then
            Outcome.check out (tr.buckets <= shrunk_buckets)
              (Printf.sprintf "%s: %d buckets after draining" s.name tr.buckets);
          (match pct [ 0; 1 ] [ 50.; 99.; 100. ] with
          | [ p50; p99; max ] ->
            note "p50" p50;
            note "p99" p99;
            note "max" max
          | _ -> assert false);
          note "grows" (float tr.grows);
          note "shrinks" (float tr.shrinks);
          note "buckets" (float tr.buckets))
    in
    if spans <> None then
      set_layer out stats
        [
          ("table.mops", "mops");
          ("migration.grows", "grows");
          ("migration.shrinks", "shrinks");
          ("migration.update_p99_ns", "p99");
          ("migration.update_max_ns", "max");
          ("migration.buckets_after_drain", "buckets");
        ];
    e2e stats
  in
  { Outcome.setup_s; measure; finish = (fun () -> mem_mb subjects) }
