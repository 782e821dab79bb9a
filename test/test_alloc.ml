(* Allocation budgets of the lookup paths, counted with
   [Gc.minor_words] (unboxed, so reading it allocates nothing): a
   [contains] on every [Hashset_intf] variant and a [has_member] on
   every FSet must allocate no word at all, and a map [get] at most the
   [Some] it returns. An update on the adaptive tables costs no more
   than on WFArray. Also the heap a churned
   unordered-list FSet keeps alive, the footprint of an empty
   split-ordered table, and the padded atomic of [Nb_atomic]. *)

module Atomic = Nbhash_util.Nb_atomic

let lookups = 1 lsl 14

(* Minor words allocated by [lookups] calls of [f] over keys that hit
   and miss in turn, after one warm-up pass. *)
let words_of_lookups ~keys f =
  let pass () =
    let hits = ref 0 in
    for i = 0 to lookups - 1 do
      if f (i land (2 * keys - 1)) then incr hits
    done;
    !hits
  in
  ignore (Sys.opaque_identity (pass ()));
  let before = Gc.minor_words () in
  let hits = pass () in
  let after = Gc.minor_words () in
  Alcotest.(check int) "every even key hits" (lookups / 2) hits;
  after -. before

let table_keys = 4096

let contains_allocates_nothing (module H : Nbhash.Hashset_intf.S) () =
  let t = H.create () in
  let h = H.register t in
  for i = 0 to table_keys - 1 do
    ignore (H.insert h (2 * i))
  done;
  let words = words_of_lookups ~keys:table_keys (fun k -> H.contains h k) in
  H.unregister h;
  Alcotest.(check (float 0.)) "minor words per contains" 0.
    (words /. float_of_int lookups)

(* Minor words per update of a remove + insert pair over present keys,
   after one warm-up pass. *)
let words_per_update (module H : Nbhash.Hashset_intf.S) =
  let t = H.create () in
  let h = H.register t in
  for i = 0 to table_keys - 1 do
    ignore (H.insert h i)
  done;
  let pass () =
    for i = 0 to lookups - 1 do
      let k = i land (table_keys - 1) in
      if not (H.remove h k && H.insert h k) then
        Alcotest.failf "%s: remove + insert of present key %d" H.name k
    done
  in
  pass ();
  let before = Gc.minor_words () in
  pass ();
  let after = Gc.minor_words () in
  H.unregister h;
  (after -. before) /. float_of_int (2 * lookups)

(* The adaptive fast path allocates no closure and no option: an update
   costs no more than the same update on WFArray, whose announced
   operation is the same size as the fast path's private one. *)
let adaptive_update_no_dearer (module H : Nbhash.Hashset_intf.S) () =
  let wf = words_per_update (module Nbhash.Tables.WFArray) in
  let words = words_per_update (module H) in
  if words > wf then
    Alcotest.failf "%s: %.2f minor words per update, WFArray %.2f" H.name
      words wf

(* A map [get] allocates at most the [Some] it returns: 2 words on a
   hit, nothing on a miss. *)
let map_get_allocates_some ~get () =
  let hits = words_of_lookups ~keys:table_keys (fun k -> get k <> None) in
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 minor words per hit (%.0f words over %d hits)"
       hits (lookups / 2))
    true
    (hits <= float_of_int lookups);
  let misses =
    let before = Gc.minor_words () in
    for i = 0 to lookups - 1 do
      ignore (Sys.opaque_identity (get ((2 * i) + 1)))
    done;
    Gc.minor_words () -. before
  in
  Alcotest.(check (float 0.)) "minor words per miss" 0.
    (misses /. float_of_int lookups)

let hashmap_get () =
  let module M = Nbhash.Hashmap in
  let h = M.register (M.create ()) in
  for i = 0 to table_keys - 1 do
    ignore (M.put h (2 * i) i)
  done;
  map_get_allocates_some ~get:(M.get h) ()

let wf_hashmap_get () =
  let module M = Nbhash.Wf_hashmap in
  let h = M.register (M.create ()) in
  for i = 0 to table_keys - 1 do
    ignore (M.put h (2 * i) i)
  done;
  map_get_allocates_some ~get:(M.get h) ()

let fset_keys = 8

let has_member_allocates_nothing (module F : Nbhash_fset.Fset_intf.CORE) () =
  let t = F.create (Array.init fset_keys (fun i -> 2 * i)) in
  let words = words_of_lookups ~keys:fset_keys (fun k -> F.has_member t k) in
  Alcotest.(check (float 0.)) "minor words per has_member" 0.
    (words /. float_of_int lookups)

let tables : (string * (module Nbhash.Hashset_intf.S)) list =
  let module T = Nbhash.Tables in
  [
    ("LFArray", (module T.LFArray));
    ("LFArrayOpt", (module T.LFArrayOpt));
    ("LFList", (module T.LFList));
    ("LFUlist", (module T.LFUlist));
    ("LFSorted", (module T.LFSorted));
    ("LFFlat", (module T.LFFlat));
    ("WFArray", (module T.WFArray));
    ("WFList", (module T.WFList));
    ("Adaptive", (module T.Adaptive));
    ("AdaptiveOpt", (module T.AdaptiveOpt));
    ("SplitOrder", (module Nbhash_splitorder.Split_ordered));
    ("Michael", (module Nbhash_michael.Michael_hashset));
    ("Locked", (module Nbhash_locked.Locked_hashset));
  ]

let fsets : (module Nbhash_fset.Fset_intf.CORE) list =
  let open Nbhash_fset in
  [
    (module Seq_fset);
    (module Lf_array_fset);
    (module Lf_list_fset);
    (module Lf_sorted_fset);
    (module Ulist_fset);
    (module Flat_fset);
    (module Wf_array_fset);
    (module Wf_list_fset);
  ]

(* The unordered list's unlinking CAS must expect the option it read
   from the slot: a freshly built option never equals it physically,
   so no dead node would be cut and each lookup would walk the whole
   insert/remove history. *)
let ulist_churn_stays_small () =
  let module U = Nbhash_fset.Ulist_fset in
  let t = U.create [| 1; 2; 3 |] in
  let apply kind k =
    let op = U.make_op kind k in
    assert (U.invoke t op);
    U.get_response op
  in
  for i = 1 to 1_000 do
    if not (apply Nbhash_fset.Fset_intf.Ins 9 && apply Nbhash_fset.Fset_intf.Rem 9)
    then Alcotest.failf "insert/remove pair %d failed" i
  done;
  let words = Obj.reachable_words (Obj.repr t) in
  if words > 200 then
    Alcotest.failf "a 3-key set reaches %d words after 1,000 pairs" words;
  let before = Gc.minor_words () in
  let present = U.has_member t 2 && not (U.has_member t 9) in
  let after = Gc.minor_words () in
  Alcotest.(check bool) "membership" true present;
  Alcotest.(check (float 0.)) "minor words per has_member" 0. (after -. before)

(* The directory covers [max_buckets] (2^22 under [Policy.default]),
   not the hard 2^26-bucket cap. *)
let splitorder_empty_footprint () =
  let t = Nbhash_splitorder.Split_ordered.create () in
  let words = Obj.reachable_words (Obj.repr t) in
  if words > 20_000 then
    Alcotest.failf "an empty SplitOrder reaches %d words" words

let contended_atomic () =
  let a = Atomic.make_contended 5 in
  Alcotest.(check bool) "padded past one cache line" true
    (Obj.size (Obj.repr a) * (Sys.word_size / 8) >= 64);
  Alcotest.(check int) "get" 5 (Atomic.get a);
  Alcotest.(check int) "fetch_and_add" 5 (Atomic.fetch_and_add a 2);
  Alcotest.(check bool) "stale CAS fails" false (Atomic.compare_and_set a 5 0);
  Alcotest.(check bool) "CAS" true (Atomic.compare_and_set a 7 1);
  Atomic.incr a;
  Alcotest.(check int) "incr" 2 (Atomic.get a);
  let boxed = Atomic.make_contended 1.5 in
  Alcotest.(check (float 0.)) "a float payload stays boxed" 1.5
    (Atomic.exchange boxed 2.5);
  Alcotest.(check (float 0.)) "exchange" 2.5 (Atomic.get boxed)

let suite =
  [
    ( "zero-alloc",
      List.map
        (fun (name, m) ->
          Alcotest.test_case ("contains " ^ name) `Quick
            (contains_allocates_nothing m))
        tables
      @ List.map
          (fun ((module F : Nbhash_fset.Fset_intf.CORE) as m) ->
            Alcotest.test_case ("has_member " ^ F.id) `Quick
              (has_member_allocates_nothing m))
          fsets
      @ [
          Alcotest.test_case "update Adaptive <= WFArray" `Quick
            (adaptive_update_no_dearer (module Nbhash.Tables.Adaptive));
          Alcotest.test_case "update AdaptiveOpt <= WFArray" `Quick
            (adaptive_update_no_dearer (module Nbhash.Tables.AdaptiveOpt));
          Alcotest.test_case "get Hashmap" `Quick hashmap_get;
          Alcotest.test_case "get Wf_hashmap" `Quick wf_hashmap_get;
          Alcotest.test_case "ulist churn stays small" `Quick
            ulist_churn_stays_small;
          Alcotest.test_case "splitorder empty footprint" `Quick
            splitorder_empty_footprint;
          Alcotest.test_case "contended atomic" `Quick contended_atomic;
        ] );
  ]
