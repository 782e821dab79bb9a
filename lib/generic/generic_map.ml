module Atomic = Nbhash_util.Nb_atomic
module Policy = Nbhash.Policy
module Cow_bucket = Nbhash.Cow_bucket
module Pair_bucket = Nbhash.Pair_bucket
module Tm = Nbhash_telemetry.Global

(* File-scope so every Make instantiation shares one id per loop. *)
let site_freeze = Nbhash_telemetry.Site.register "generic_map/freeze_slot"
let site_stale = Nbhash_telemetry.Site.register "generic_map/stale_bucket"
let site_update = Nbhash_telemetry.Site.register "generic_map/update"

module Make (K : Hashtbl.HashedType) = struct
  let hash k = K.hash k land max_int

  (* {!Generic_set}'s bucket with (key, value) pairs. *)
  module Bucket = struct
    include Cow_bucket

    type 'v elt = K.t * 'v
    type 'v slot = 'v elt Cow_bucket.t

    let freeze () slots i = freeze_slot site_freeze slots.(i)
    let hash (k, _) = hash k
    let same_key (a, _) (b, _) = K.equal a b
    let split pairs = Nbhash.Table_core.split_by hash pairs
    let merge = Array.append
  end

  module Core = Nbhash.Table_core.Make (Bucket)

  type 'v t = 'v Core.t
  type 'v handle = { table : 'v t; local : Policy.Trigger.local }

  (* The index of [k]'s pair, or -1, as [Pair_bucket.find]. *)
  let rec pairs_find_from pairs k i =
    if i >= Array.length pairs then -1
    else if K.equal (fst pairs.(i)) k then i
    else pairs_find_from pairs k (i + 1)

  let pairs_find pairs k = pairs_find_from pairs k 0

  let create ?(policy = Policy.default) () = Core.create policy
  let seed = Atomic.make 0x6e4

  let register table =
    {
      table;
      local =
        Policy.Trigger.make_local table.Core.count
          ~seed:(Atomic.fetch_and_add seed 1);
    }

  let unregister h = Policy.Trigger.flush h.local

  let rec with_bucket t hk step =
    let hn = Atomic.get t.Core.head in
    let i = hk land hn.Core.mask in
    let slot = hn.Core.buckets.(i) in
    match Atomic.get slot with
    | Cow_bucket.Uninit ->
      Core.init_bucket hn i;
      with_bucket t hk step
    | Cow_bucket.Node n as cur ->
      if not n.ok then begin
        Tm.cas_retry site_stale;
        with_bucket t hk step
      end
      else begin
        let report, replacement = step n.elems in
        match replacement with
        | None -> report
        | Some pairs ->
          if
            Atomic.compare_and_set slot cur
              (Cow_bucket.Node { elems = pairs; ok = true })
          then report
          else begin
            Tm.cas_retry site_update;
            with_bucket t hk step
          end
      end

  let put h k v =
    let hk = hash k in
    let prev =
      with_bucket h.table hk (fun pairs ->
          let i = pairs_find pairs k in
          (Pair_bucket.binding pairs i, Some (Pair_bucket.set pairs i (k, v))))
    in
    Core.after_insert h.table h.local ~key:hk ~resp:(Option.is_none prev);
    prev

  let remove h k =
    let prev =
      with_bucket h.table (hash k) (fun pairs ->
          let i = pairs_find pairs k in
          if i < 0 then (None, None)
          else (Pair_bucket.binding pairs i, Some (Pair_bucket.remove pairs i)))
    in
    Core.after_remove h.table h.local ~resp:(Option.is_some prev);
    prev

  let update h k f =
    let hk = hash k in
    let was_absent =
      with_bucket h.table hk (fun pairs ->
          let i = pairs_find pairs k in
          let v = f (Pair_bucket.binding pairs i) in
          (i < 0, Some (Pair_bucket.set pairs i (k, v))))
    in
    Core.after_insert h.table h.local ~key:hk ~resp:was_absent

  let get h k =
    let hn = Atomic.get h.table.Core.head in
    let i = hash k land hn.Core.mask in
    let pairs =
      match Atomic.get hn.Core.buckets.(i) with
      | Cow_bucket.Node n -> n.elems
      | Cow_bucket.Uninit ->
        let slot =
          match Atomic.get hn.Core.pred with
          | Some s -> s.Core.buckets.(hash k land s.Core.mask)
          | None -> hn.Core.buckets.(i)
        in
        Cow_bucket.contents (Atomic.get slot)
    in
    Pair_bucket.binding pairs (pairs_find pairs k)

  let mem h k = Option.is_some (get h k)
  let bindings t = Array.to_list (Core.elements t)
  let cardinal = Core.cardinal
  let bucket_count = Core.bucket_count
  let resize_stats = Core.resize_stats
  let force_resize h ~grow = Core.resize h.table grow
  let check_invariants = Core.check_invariants
end
