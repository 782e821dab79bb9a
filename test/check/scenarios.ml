(* Scenario library for the schedule explorer: small scripted races
   over the production FSet and hash-table code, each paired with a
   verdict checked after every explored interleaving. Histories are
   recorded through {!Record} (untraced — the recorder's own atomics
   are not scheduling points) and judged by the {!Lin} models.

   Determinism rules (see [Explore]): tables are created with
   [Policy.presized] so the resize policy never draws the PRNG, and
   the ambient telemetry probe stays [Noop], so the only scheduling
   points are the algorithms' own shimmed atomic operations. *)

module Explore = Nbhash_check.Explore
module Lin = Nbhash_testlib.Lin
module Record = Nbhash_testlib.Record
module Fset_intf = Nbhash_fset.Fset_intf
module Policy = Nbhash.Policy

let fset_verdict r () =
  let evs = Record.events r in
  if Lin.Fset.check evs then Ok ()
  else
    Error
      (Format.asprintf "FSet history is not linearizable:@.%a"
         Lin.Fset.pp_history evs)

(* The freeze-vs-update race of the paper's Figure 5 object: one
   thread freezes (recording the snapshot) while two others try to
   insert and remove. The model demands that any update linearized
   after the freeze is Refused and that the snapshot is exactly the
   set at the freeze point — the race the [ok] re-check in
   [Lf_fset.invoke] exists to win. *)
module Freeze_vs_update (F : Fset_intf.S) = struct
  let record_invoke r t kind key =
    let op_m =
      match kind with
      | Fset_intf.Ins -> Lin.Fset_model.Ins key
      | Fset_intf.Rem -> Lin.Fset_model.Rem key
    in
    ignore
      (Record.record r op_m (fun () ->
           let op = F.make_op kind key in
           if F.invoke t op then Lin.Fset_model.Applied (F.get_response op)
           else Lin.Fset_model.Refused))

  let scenario () =
    let t = F.create [||] in
    let r = Record.make () in
    (* Seed key 1 before the race so the snapshot is non-trivial; setup
       runs untraced but is recorded, so the model sees it first. *)
    record_invoke r t Fset_intf.Ins 1;
    let threads =
      [|
        (fun () ->
          ignore
            (Record.record r Lin.Fset_model.Freeze (fun () ->
                 let snap = F.freeze t in
                 Lin.Fset_model.Snapshot
                   (List.sort compare (Array.to_list snap)))));
        (fun () -> record_invoke r t Fset_intf.Ins 2);
        (fun () -> record_invoke r t Fset_intf.Rem 1);
      |]
    in
    (threads, fset_verdict r)
end

(* Same race over the wait-free FSet; priorities stand in for thread
   ids. *)
module Wf_freeze_vs_update (F : Fset_intf.WF) = struct
  let record_invoke r t kind key ~prio =
    let op_m =
      match kind with
      | Fset_intf.Ins -> Lin.Fset_model.Ins key
      | Fset_intf.Rem -> Lin.Fset_model.Rem key
    in
    ignore
      (Record.record r op_m (fun () ->
           let op = F.make_op kind key ~prio in
           if F.invoke t op then Lin.Fset_model.Applied (F.get_response op)
           else Lin.Fset_model.Refused))

  let freeze_vs_update () =
    let t = F.create [||] in
    let r = Record.make () in
    record_invoke r t Fset_intf.Ins 1 ~prio:7;
    let threads =
      [|
        (fun () ->
          ignore
            (Record.record r Lin.Fset_model.Freeze (fun () ->
                 let snap = F.freeze t in
                 Lin.Fset_model.Snapshot
                   (List.sort compare (Array.to_list snap)))));
        (fun () -> record_invoke r t Fset_intf.Ins 2 ~prio:1);
        (fun () -> record_invoke r t Fset_intf.Rem 1 ~prio:2);
      |]
    in
    (threads, fset_verdict r)

  (* Two threads invoke the SAME announced operation (the helping path
     of paper section 7). At-most-once application: whatever the
     interleaving, the op ends done with response true and the set
     holds exactly its key. *)
  let shared_op_help () =
    let t = F.create [||] in
    let op = F.make_op Fset_intf.Ins 5 ~prio:1 in
    let threads =
      [| (fun () -> ignore (F.invoke t op)); (fun () -> ignore (F.invoke t op)) |]
    in
    let verify () =
      if not (F.op_is_done op) then Error "helped op is not done"
      else if not (F.get_response op) then
        Error "insert into empty set responded false"
      else
        match List.sort compare (Array.to_list (F.elements t)) with
        | [ 5 ] -> Ok ()
        | l ->
          Error
            (Printf.sprintf "expected {5}, set holds {%s} — op applied %s"
               (String.concat "," (List.map string_of_int l))
               (if List.length l > 1 then "twice?" else "zero times?"))
    in
    (threads, verify)

  (* Two distinct ops with competing priorities, over a seeded key:
     both must apply exactly once, in some linearizable order. *)
  let announce_race () =
    let t = F.create [||] in
    let r = Record.make () in
    record_invoke r t Fset_intf.Ins 1 ~prio:7;
    let threads =
      [|
        (fun () -> record_invoke r t Fset_intf.Ins 2 ~prio:1);
        (fun () -> record_invoke r t Fset_intf.Rem 1 ~prio:2);
      |]
    in
    (threads, fset_verdict r)
end

(* Hash-table races: an update or lookup racing a forced resize. The
   verdict replays the recorded history against the set model, probes
   final membership, and runs the structural invariant checker. *)
module Table_races (H : Nbhash.Hashset_intf.S) = struct
  let verdict t h r () =
    ignore
      (Record.record r (Lin.Set_model.Mem 1) (fun () -> H.contains h 1));
    ignore
      (Record.record r (Lin.Set_model.Mem 2) (fun () -> H.contains h 2));
    match H.check_invariants t with
    | exception Failure msg -> Error ("invariant violation: " ^ msg)
    | () ->
      let evs = Record.events r in
      if Lin.Set.check evs then Ok ()
      else
        Error
          (Format.asprintf "table history is not linearizable:@.%a"
             Lin.Set.pp_history evs)

  let setup buckets =
    let t = H.create ~policy:(Policy.presized buckets) ~max_threads:4 () in
    let h1 = H.register t and h2 = H.register t in
    let r = Record.make () in
    (t, h1, h2, r)

  let record_insert r h k =
    ignore (Record.record r (Lin.Set_model.Ins k) (fun () -> H.insert h k))

  let grow_during_insert () =
    let t, h1, h2, r = setup 1 in
    record_insert r h1 1;
    let threads =
      [|
        (fun () -> record_insert r h1 2);
        (fun () -> H.force_resize h2 ~grow:true);
      |]
    in
    (threads, verdict t h1 r)

  let shrink_during_contains () =
    let t, h1, h2, r = setup 2 in
    record_insert r h1 1;
    record_insert r h1 2;
    let threads =
      [|
        (fun () ->
          ignore
            (Record.record r (Lin.Set_model.Mem 1) (fun () ->
                 H.contains h1 1)));
        (fun () -> H.force_resize h2 ~grow:false);
      |]
    in
    (threads, verdict t h1 r)

  let grow_vs_grow () =
    let t, h1, h2, r = setup 1 in
    record_insert r h1 1;
    let threads =
      [|
        (fun () -> H.force_resize h1 ~grow:true);
        (fun () -> H.force_resize h2 ~grow:true);
      |]
    in
    (threads, verdict t h1 r)
end

(* Cooperative-sweep races: the table starts mid-migration (a forced
   grow in setup leaves the head HNode with a predecessor and every
   head bucket nil), and the racing update operations both migrate
   lazily on first touch AND claim sweep chunks from the shared cursor
   on their way out ([help_migration] runs inside the policy hooks).
   With [chunk] covering the whole table, one thread's claimed chunk
   races the other thread's lazy [init_bucket] on the same indices —
   the install CAS must admit exactly one copy of each bucket. *)
module Sweep_races (H : Nbhash.Hashset_intf.S) = struct
  let sweep_policy buckets ~chunk =
    {
      (Policy.presized buckets) with
      Policy.migration = { Policy.eager = true; chunk; max_helpers = 4 };
    }

  let verdict ~keys t h r () =
    List.iter
      (fun k ->
        ignore
          (Record.record r (Lin.Set_model.Mem k) (fun () -> H.contains h k)))
      keys;
    match H.check_invariants t with
    | exception Failure msg -> Error ("invariant violation: " ^ msg)
    | () ->
      let evs = Record.events r in
      if Lin.Set.check evs then Ok ()
      else
        Error
          (Format.asprintf "table history is not linearizable:@.%a"
             Lin.Set.pp_history evs)

  let setup ~buckets ~chunk =
    let t = H.create ~policy:(sweep_policy buckets ~chunk) ~max_threads:4 () in
    let h1 = H.register t and h2 = H.register t in
    let r = Record.make () in
    (t, h1, h2, r)

  let record_insert r h k =
    ignore (Record.record r (Lin.Set_model.Ins k) (fun () -> H.insert h k))

  (* Both inserts lazily initialize their own head bucket, then each
     claims a whole-table chunk: helper-vs-lazy and helper-vs-helper
     install races on every bucket. *)
  let helper_vs_lazy () =
    let t, h1, h2, r = setup ~buckets:2 ~chunk:4 in
    record_insert r h1 0;
    record_insert r h1 1;
    H.force_resize h1 ~grow:true;
    let threads =
      [|
        (fun () -> record_insert r h1 5);
        (fun () -> record_insert r h2 2);
      |]
    in
    (threads, verdict ~keys:[ 0; 1; 2; 5 ] t h1 r)

  (* A sweeping helper races the next resize: the insert's claimed
     chunk overlaps the shrink's cursor drain and catch-up loop, and
     the shrink installs a successor while the helper may still be
     mid-chunk — the idempotent-replay and never-wait obligations of
     the sweep engine. *)
  let sweep_vs_grow_shrink () =
    let t, h1, h2, r = setup ~buckets:2 ~chunk:2 in
    record_insert r h1 0;
    record_insert r h1 3;
    H.force_resize h1 ~grow:true;
    let threads =
      [|
        (fun () -> record_insert r h1 2);
        (fun () -> H.force_resize h2 ~grow:false);
      |]
    in
    (threads, verdict ~keys:[ 0; 2; 3 ] t h1 r)
end

(* Flat-slot races specific to the open-addressing layout: the freeze
   latch and an insert claim CAS contending for the same physical
   slot word, removes probing across tombstone runs while the
   tombstoned key is re-inserted (the claim must NOT reuse the
   tombstone — that race is exactly why [Flat_fset] claims only Empty
   words), and two freezers latching the seal sweep concurrently.
   Every scenario ends by recording a final freeze snapshot, so a
   lost or duplicated update shows up in the model even without a
   membership op. *)
module Flat_slot_races = struct
  module F = Nbhash_fset.Flat_fset

  let record_invoke r t kind key =
    let op_m =
      match kind with
      | Fset_intf.Ins -> Lin.Fset_model.Ins key
      | Fset_intf.Rem -> Lin.Fset_model.Rem key
    in
    ignore
      (Record.record r op_m (fun () ->
           let op = F.make_op kind key in
           if F.invoke t op then Lin.Fset_model.Applied (F.get_response op)
           else Lin.Fset_model.Refused))

  let record_freeze r t =
    ignore
      (Record.record r Lin.Fset_model.Freeze (fun () ->
           Lin.Fset_model.Snapshot
             (List.sort compare (Array.to_list (F.freeze t)))))

  let final_verdict r t () =
    record_freeze r t;
    fset_verdict r ()

  (* Smallest key >= 0 (distinct from [k]) probing from the same home
     slot of a capacity-8 generation; white-box via the module's own
     hash. *)
  let home k = F.mix k land 7

  let collide k =
    let rec go c = if c <> k && home c = home k then c else go (c + 1) in
    go 0

  (* The freeze's seal CAS and the insert's claim CAS target the same
     Empty home slot: exactly one wins, and the model decides which
     response set is coherent. *)
  let freeze_vs_insert_same_slot () =
    let t = F.create [||] in
    let r = Record.make () in
    let threads =
      [|
        (fun () -> record_freeze r t);
        (fun () -> record_invoke r t Fset_intf.Ins 1);
      |]
    in
    (threads, final_verdict r t)

  (* Setup leaves a tombstone at [a]'s home with [b] displaced past
     it. One thread removes [b] (its probe crosses the tombstone run),
     the other re-inserts [a] (which must claim a fresh Empty word,
     never the tombstone). *)
  let remove_vs_probe_over_tombstones () =
    let a = 1 in
    let b = collide a in
    let t = F.create [||] in
    let r = Record.make () in
    record_invoke r t Fset_intf.Ins a;
    record_invoke r t Fset_intf.Ins b;
    record_invoke r t Fset_intf.Rem a;
    let threads =
      [|
        (fun () -> record_invoke r t Fset_intf.Rem b);
        (fun () -> record_invoke r t Fset_intf.Ins a);
      |]
    in
    (threads, final_verdict r t)

  (* Two freezers race the seal sweep while an insert is in flight:
     both snapshots must agree on the one frozen state, and the insert
     is either in both or refused/absent from both. *)
  let concurrent_freeze_latching () =
    let t = F.create [||] in
    let r = Record.make () in
    record_invoke r t Fset_intf.Ins 3;
    let threads =
      [|
        (fun () -> record_freeze r t);
        (fun () -> record_freeze r t);
        (fun () -> record_invoke r t Fset_intf.Ins 1);
      |]
    in
    (threads, fset_verdict r)
end

(* Races on the bare ordered list under SplitOrder and Michael's
   table: an insert linking after a cell that is being removed, two
   removes of one key, and a lookup walking through a cell while it is
   unlinked. The verdict probes the keys after the race, checks the
   order, and replays the history against the set model. *)
module type ORDERED_LIST = sig
  type node

  val make_head : unit -> node
  val insert : start:node -> int -> bool
  val remove : start:node -> int -> bool
  val mem : start:node -> int -> bool
  val check_sorted : start:node -> unit
end

module Ordered_list_races (L : ORDERED_LIST) = struct
  let setup keys =
    let head = L.make_head () in
    let r = Record.make () in
    List.iter
      (fun k ->
        ignore (Record.record r (Lin.Set_model.Ins k) (fun () -> L.insert ~start:head k)))
      keys;
    (head, r)

  let record r head op =
    ignore
      (Record.record r op (fun () ->
           match op with
           | Lin.Set_model.Ins k -> L.insert ~start:head k
           | Lin.Set_model.Rem k -> L.remove ~start:head k
           | Lin.Set_model.Mem k -> L.mem ~start:head k))

  let verdict ~keys head r () =
    List.iter (fun k -> record r head (Lin.Set_model.Mem k)) keys;
    match L.check_sorted ~start:head with
    | exception Failure msg -> Error ("order violation: " ^ msg)
    | () ->
      let evs = Record.events r in
      if Lin.Set.check evs then Ok ()
      else
        Error
          (Format.asprintf "ordered-list history is not linearizable:@.%a"
             Lin.Set.pp_history evs)

  (* The insert of 2 links after cell 1 while 1 is removed: the mark on
     1's link must fail the insert's CAS, or the unlink of 1 cuts 2
     out with it. *)
  let insert_vs_remove_pred () =
    let head, r = setup [ 1 ] in
    let threads =
      [|
        (fun () -> record r head (Lin.Set_model.Rem 1));
        (fun () -> record r head (Lin.Set_model.Ins 2));
      |]
    in
    (threads, verdict ~keys:[ 1; 2 ] head r)

  (* Exactly one of two removes of the same key wins the mark. *)
  let double_remove () =
    let head, r = setup [ 1; 2 ] in
    let threads =
      [|
        (fun () -> record r head (Lin.Set_model.Rem 1));
        (fun () -> record r head (Lin.Set_model.Rem 1));
      |]
    in
    (threads, verdict ~keys:[ 1; 2 ] head r)

  (* A lookup walks through cell 2 while its remover marks and unlinks
     it: 3 stays reachable, and 2 reads present only before the mark. *)
  let mem_during_unlink () =
    let head, r = setup [ 1; 2; 3 ] in
    let threads =
      [|
        (fun () -> record r head (Lin.Set_model.Rem 2));
        (fun () ->
          record r head (Lin.Set_model.Mem 3);
          record r head (Lin.Set_model.Mem 2));
      |]
    in
    (threads, verdict ~keys:[ 2; 3 ] head r)
end

module Lf_array = Freeze_vs_update (Nbhash_fset.Lf_array_fset)
module Lf_list = Freeze_vs_update (Nbhash_fset.Lf_list_fset)
module Ulist = Freeze_vs_update (Nbhash_fset.Ulist_fset)
module Flat = Freeze_vs_update (Nbhash_fset.Flat_fset)
module Wf_array = Wf_freeze_vs_update (Nbhash_fset.Wf_array_fset)
module LFArray = Table_races (Nbhash.Tables.LFArray)
module WFArray = Table_races (Nbhash.Tables.WFArray)
module LFFlat = Table_races (Nbhash.Tables.LFFlat)

(* The flattened layouts run the same core over their own buckets: a
   copy-on-write slot (LFArrayOpt) and a wait-free slot with
   freeze-intent flags beside it (AdaptiveOpt). *)
module LFArrayOpt = Table_races (Nbhash.Tables.LFArrayOpt)
module AdaptiveOpt = Table_races (Nbhash.Tables.AdaptiveOpt)
module LFArray_sweep = Sweep_races (Nbhash.Tables.LFArray)
module WFArray_sweep = Sweep_races (Nbhash.Tables.WFArray)
module LFArrayOpt_sweep = Sweep_races (Nbhash.Tables.LFArrayOpt)
module AdaptiveOpt_sweep = Sweep_races (Nbhash.Tables.AdaptiveOpt)
module Ordered_list = Ordered_list_races (Nbhash_splitorder.Ordered_list)
module SplitOrder = Table_races (Nbhash_splitorder.Split_ordered)
module Broken = Freeze_vs_update (Broken_fset)
module Broken_ordered_list = Ordered_list_races (Broken_ordered_list)
module Broken_flat = Freeze_vs_update (Broken_flat_fset)

(* Every shipped implementation must pass bounded exploration of
   these. *)
let all : (string * Explore.scenario) list =
  [
    ("lf-array freeze vs update", Lf_array.scenario);
    ("lf-list freeze vs update", Lf_list.scenario);
    ("ulist freeze vs update", Ulist.scenario);
    ("flat freeze vs update", Flat.scenario);
    ( "flat freeze vs insert same slot",
      Flat_slot_races.freeze_vs_insert_same_slot );
    ( "flat remove vs probe over tombstones",
      Flat_slot_races.remove_vs_probe_over_tombstones );
    ("flat concurrent freeze latching", Flat_slot_races.concurrent_freeze_latching);
    ("wf-array freeze vs update", Wf_array.freeze_vs_update);
    ("wf-array shared-op helping", Wf_array.shared_op_help);
    ("wf-array announce race", Wf_array.announce_race);
    ("lfarray grow during insert", LFArray.grow_during_insert);
    ("lfarray shrink during contains", LFArray.shrink_during_contains);
    ("lfarray grow vs grow", LFArray.grow_vs_grow);
    ("lfflat grow during insert", LFFlat.grow_during_insert);
    ("lfflat shrink during contains", LFFlat.shrink_during_contains);
    ("wfarray grow during insert", WFArray.grow_during_insert);
    ("lfarrayopt grow during insert", LFArrayOpt.grow_during_insert);
    ("lfarrayopt shrink during contains", LFArrayOpt.shrink_during_contains);
    ("lfarrayopt grow vs grow", LFArrayOpt.grow_vs_grow);
    ("adaptiveopt grow during insert", AdaptiveOpt.grow_during_insert);
    ("adaptiveopt shrink during contains", AdaptiveOpt.shrink_during_contains);
    ("lfarray sweep helper vs lazy init", LFArray_sweep.helper_vs_lazy);
    ("lfarray sweep vs grow-shrink", LFArray_sweep.sweep_vs_grow_shrink);
    ("wfarray sweep helper vs lazy init", WFArray_sweep.helper_vs_lazy);
    ("wfarray sweep vs grow-shrink", WFArray_sweep.sweep_vs_grow_shrink);
    ("lfarrayopt sweep helper vs lazy init", LFArrayOpt_sweep.helper_vs_lazy);
    ("lfarrayopt sweep vs grow-shrink", LFArrayOpt_sweep.sweep_vs_grow_shrink);
    ("adaptiveopt sweep helper vs lazy init", AdaptiveOpt_sweep.helper_vs_lazy);
    ( "adaptiveopt sweep vs grow-shrink",
      AdaptiveOpt_sweep.sweep_vs_grow_shrink );
    ( "ordered-list insert vs remove of pred",
      Ordered_list.insert_vs_remove_pred );
    ("ordered-list double remove", Ordered_list.double_remove);
    ("ordered-list mem during unlink", Ordered_list.mem_during_unlink);
    ("splitorder grow during insert", SplitOrder.grow_during_insert);
    ("splitorder shrink during contains", SplitOrder.shrink_during_contains);
    ("splitorder grow vs grow", SplitOrder.grow_vs_grow);
  ]

(* ... and the deliberately broken FSet (no [ok] re-check on the retry
   path) must fail it, with a printed counterexample schedule. *)
let broken : string * Explore.scenario =
  ("broken-fset freeze vs update (expected violation)", Broken.scenario)

(* The broken flat claim: insert CASes a key into any empty-keyed
   word, sealed or not, skipping the FROZEN re-check the Empty-only
   claim provides. A freeze completing before the claim yields a
   snapshot that excludes the applied insert — non-linearizable. *)
let broken_flat : string * Explore.scenario =
  ("broken-flat sealed-slot claim (expected violation)", Broken_flat.scenario)

(* The broken ordered list: a remove that unlinks without marking. An
   insert that links after the victim before the unlinking CAS is cut
   out with it, so its applied insert is gone. *)
let broken_ordered_list : string * Explore.scenario =
  ( "broken-ordered-list unmarked unlink (expected violation)",
    Broken_ordered_list.insert_vs_remove_pred )

(* The broken chunk claimer: a stale-head insert races the no-freeze
   sweep. The update's success must imply membership; the missing
   freeze lets the interleaving "copy pred bucket, apply update to
   pred bucket, cut pred" lose the key. *)
let broken_sweep : string * Explore.scenario =
  ( "broken-sweep unfrozen chunk copy (expected violation)",
    fun () ->
      let t = Broken_sweep.create () in
      ignore (Broken_sweep.insert t 1);
      let applied = ref false in
      let threads =
        [|
          (fun () -> Broken_sweep.resize_and_sweep_broken t);
          (fun () -> applied := Broken_sweep.insert t 3);
        |]
      in
      let verify () =
        if !applied && not (Broken_sweep.contains t 3) then
          Error
            "insert 3 was applied, but the key is gone: the unfrozen chunk \
             copy migrated the bucket before the update landed in the \
             predecessor"
        else Ok ()
      in
      (threads, verify) )
