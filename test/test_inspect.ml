(* The structural inspector (PR 5): [inspect] must agree exactly with
   a census computed from [bucket_sizes] on quiescent tables — the
   inspector is only useful if its numbers are the truth, not a second
   estimate. Covered: every Factory variant (the paper's eight plus
   the Michael and Locked reference points) and both maps; plus the
   in-window behaviour (an open migration reports [migrating] with a
   sub-1 progress, and draining the window brings progress back to
   exactly 1.0). *)

module Factory = Nbhash_workload.Factory
module V = Nbhash.Hashset_intf

(* Reference census, computed independently of the library helper the
   inspector itself uses. *)
let census_of sizes =
  let m = Array.fold_left max 0 sizes in
  let c = Array.make (m + 1) 0 in
  Array.iter (fun s -> c.(s) <- c.(s) + 1) sizes;
  c

let check_view ~what (v : V.table_view) sizes =
  let total = Array.fold_left ( + ) 0 sizes in
  Alcotest.(check int) (what ^ ": buckets") (Array.length sizes) v.V.buckets;
  Alcotest.(check int) (what ^ ": cardinal") total v.V.cardinal;
  Alcotest.(check (array int))
    (what ^ ": depth census") (census_of sizes) v.V.depth_census;
  Alcotest.(check int)
    (what ^ ": max depth")
    (Array.fold_left max 0 sizes)
    v.V.max_depth;
  Alcotest.(check (float 1e-9))
    (what ^ ": load factor")
    (float_of_int total /. float_of_int (max 1 (Array.length sizes)))
    v.V.load_factor

let quiescent_factory (name, (maker : Factory.maker)) () =
  let table = maker () in
  let ops = table.Factory.new_handle () in
  (* A spread of keys with holes so depths vary. *)
  for k = 0 to 799 do
    ignore (ops.Factory.ins (k * 3))
  done;
  for k = 0 to 199 do
    ignore (ops.Factory.rem (k * 6))
  done;
  ops.Factory.detach ();
  let v = table.Factory.inspect () in
  check_view ~what:name v (table.Factory.bucket_sizes ());
  Alcotest.(check bool) (name ^ ": quiescent, not migrating") false
    v.V.migrating;
  Alcotest.(check (float 0.))
    (name ^ ": quiescent progress") 1.0 v.V.migration_progress;
  Alcotest.(check int) (name ^ ": no frozen buckets") 0 v.V.frozen_buckets;
  Alcotest.(check int) (name ^ ": no announced ops") 0 v.V.announce_pending;
  table.Factory.close ()

(* Open a migration window with a forced resize and watch the
   inspector: inside the window progress is in [0, 1); updates (which
   help via the cooperative sweep) drain it back to exactly 1.0. *)
let window (name, (maker : Factory.maker)) () =
  let table = maker () in
  let ops = table.Factory.new_handle () in
  for k = 0 to 499 do
    ignore (ops.Factory.ins k)
  done;
  ops.Factory.force_resize ~grow:true;
  let v = table.Factory.inspect () in
  Alcotest.(check bool) (name ^ ": window open") true v.V.migrating;
  Alcotest.(check bool)
    (name ^ ": in-window progress < 1")
    true
    (v.V.migration_progress >= 0. && v.V.migration_progress < 1.0);
  (* The view is still exact mid-window: sizes read through the
     predecessor (the refinement mapping), so nothing is lost. *)
  check_view ~what:(name ^ " in-window") v (table.Factory.bucket_sizes ());
  let budget = ref 100_000 in
  while (table.Factory.inspect ()).V.migrating && !budget > 0 do
    ignore (ops.Factory.ins 1_000_001);
    ignore (ops.Factory.rem 1_000_001);
    decr budget
  done;
  ops.Factory.detach ();
  let v = table.Factory.inspect () in
  Alcotest.(check bool) (name ^ ": window drained") false v.V.migrating;
  Alcotest.(check (float 0.))
    (name ^ ": drained progress") 1.0 v.V.migration_progress;
  table.Factory.close ()

let quiescent_hashmap () =
  let t = Nbhash.Hashmap.create () in
  let h = Nbhash.Hashmap.register t in
  for k = 0 to 511 do
    ignore (Nbhash.Hashmap.put h (k * 5) (string_of_int k))
  done;
  for k = 0 to 127 do
    ignore (Nbhash.Hashmap.remove h (k * 10))
  done;
  Nbhash.Hashmap.unregister h;
  let v = Nbhash.Hashmap.inspect t in
  check_view ~what:"Hashmap" v (Nbhash.Hashmap.bucket_sizes t);
  Alcotest.(check bool) "Hashmap: not migrating" false v.Nbhash.Hashset_intf.migrating;
  Alcotest.(check int) "Hashmap: no frozen buckets" 0 v.Nbhash.Hashset_intf.frozen_buckets

let quiescent_wf_hashmap () =
  let t = Nbhash.Wf_hashmap.create () in
  let h = Nbhash.Wf_hashmap.register t in
  for k = 0 to 511 do
    ignore (Nbhash.Wf_hashmap.put h (k * 5) (k * k))
  done;
  for k = 0 to 127 do
    ignore (Nbhash.Wf_hashmap.remove h (k * 10))
  done;
  Nbhash.Wf_hashmap.unregister h;
  let v = Nbhash.Wf_hashmap.inspect t in
  check_view ~what:"Wf_hashmap" v (Nbhash.Wf_hashmap.bucket_sizes t);
  Alcotest.(check bool) "Wf_hashmap: not migrating" false
    v.Nbhash.Hashset_intf.migrating;
  Alcotest.(check int) "Wf_hashmap: no pending slots" 0
    v.Nbhash.Hashset_intf.announce_pending

(* The maps count an uninitialised bucket's keys in place instead of
   building its split or merged pair array; the view must still equal
   the census of [bucket_sizes], which does build them. Lazy migration
   and no policy resizes make the windows deterministic: a grow window
   (split by mask) and a shrink window (two buckets merged), each
   checked untouched and then partly initialised by updates. *)
let map_window ~what ~put ~force_resize ~inspect ~bucket_sizes () =
  let check_open step =
    let v = inspect () in
    Alcotest.(check bool) (what ^ " " ^ step ^ ": window open") true
      v.V.migrating;
    check_view ~what:(what ^ " " ^ step) v (bucket_sizes ())
  in
  for k = 0 to 2047 do
    put (k * 3)
  done;
  List.iter
    (fun (dir, grow) ->
      force_resize ~grow;
      check_open (dir ^ ", untouched");
      for k = 0 to 63 do
        put ((k * 17) + 1)
      done;
      check_open (dir ^ ", partly initialised"))
    [ ("grow", true); ("shrink", false) ]

let map_policy =
  {
    (Nbhash.Policy.lazy_migration Nbhash.Policy.default) with
    Nbhash.Policy.enabled = false;
    init_buckets = 256;
  }

let window_hashmap () =
  let module M = Nbhash.Hashmap in
  let t = M.create ~policy:map_policy () in
  let h = M.register t in
  map_window ~what:"Hashmap"
    ~put:(fun k -> ignore (M.put h k "v"))
    ~force_resize:(M.force_resize h)
    ~inspect:(fun () -> M.inspect t)
    ~bucket_sizes:(fun () -> M.bucket_sizes t)
    ()

let window_wf_hashmap () =
  let module M = Nbhash.Wf_hashmap in
  let t = M.create ~policy:map_policy () in
  let h = M.register t in
  map_window ~what:"Wf_hashmap"
    ~put:(fun k -> ignore (M.put h k k))
    ~force_resize:(M.force_resize h)
    ~inspect:(fun () -> M.inspect t)
    ~bucket_sizes:(fun () -> M.bucket_sizes t)
    ()

let suite =
  [
    ( "inspect",
      List.map
        (fun ((name, _) as entry) ->
          Alcotest.test_case
            (Printf.sprintf "quiescent census %s" name)
            `Quick (quiescent_factory entry))
        Factory.with_michael
      @ List.map
          (fun ((name, _) as entry) ->
            Alcotest.test_case
              (Printf.sprintf "migration window %s" name)
              `Quick (window entry))
          (List.filter
             (fun (name, _) ->
               List.mem name [ "LFArray"; "LFArrayOpt"; "WFArray"; "AdaptiveOpt" ])
             Factory.with_michael)
      @ [
          Alcotest.test_case "quiescent census Hashmap" `Quick
            quiescent_hashmap;
          Alcotest.test_case "quiescent census Wf_hashmap" `Quick
            quiescent_wf_hashmap;
          Alcotest.test_case "migration window Hashmap" `Quick window_hashmap;
          Alcotest.test_case "migration window Wf_hashmap" `Quick
            window_wf_hashmap;
        ] );
  ]
