module Atomic = Nbhash_util.Nb_atomic
module Tm = Nbhash_telemetry.Global

let site_freeze = Nbhash_telemetry.Site.register "hashmap/freeze_slot"
let site_stale = Nbhash_telemetry.Site.register "hashmap/stale_bucket"
let site_update = Nbhash_telemetry.Site.register "hashmap/update"

(* The LFArrayOpt bucket layout, with pairs. *)
module Bucket = struct
  include Cow_bucket
  include Pair_bucket

  type 'v slot = 'v elt Cow_bucket.t

  let freeze () slots i = freeze_slot site_freeze slots.(i)
end

module Core = Table_core.Make (Bucket)

type 'v t = 'v Core.t
type 'v handle = { table : 'v t; local : Policy.Trigger.local }

let create ?(policy = Policy.default) () = Core.create policy
let seed = Atomic.make 0x3a9

let register table =
  {
    table;
    local =
      Policy.Trigger.make_local table.Core.count
        ~seed:(Atomic.fetch_and_add seed 1);
  }

let unregister h = Policy.Trigger.flush h.local

(* Apply [step] to the current mutable node of the bucket owning [k]:
   [step pairs] returns [None] to report without writing, or the
   replacement pair array. Returns [step]'s report. Retries across
   freezes and lost CASes. *)
let rec with_bucket t k step =
  let hn = Atomic.get t.Core.head in
  let i = k land hn.Core.mask in
  let slot = hn.Core.buckets.(i) in
  match Atomic.get slot with
  | Uninit ->
    Core.init_bucket hn i;
    with_bucket t k step
  | Node n as cur ->
    if not n.ok then begin
      Tm.cas_retry site_stale;
      with_bucket t k step
    end
    else begin
      let report, replacement = step n.elems in
      match replacement with
      | None -> report
      | Some pairs ->
        if Atomic.compare_and_set slot cur (Node { elems = pairs; ok = true })
        then report
        else begin
          Tm.cas_retry site_update;
          with_bucket t k step
        end
    end

let put h k v =
  Hashset_intf.check_key k;
  let prev =
    with_bucket h.table k (fun pairs ->
        let i = Pair_bucket.find pairs k in
        (Pair_bucket.binding pairs i, Some (Pair_bucket.set pairs i (k, v))))
  in
  Core.after_insert h.table h.local ~key:k ~resp:(Option.is_none prev);
  prev

let remove h k =
  Hashset_intf.check_key k;
  let prev =
    with_bucket h.table k (fun pairs ->
        let i = Pair_bucket.find pairs k in
        if i < 0 then (None, None)
        else (Pair_bucket.binding pairs i, Some (Pair_bucket.remove pairs i)))
  in
  Core.after_remove h.table h.local ~resp:(Option.is_some prev);
  prev

let update h k f =
  Hashset_intf.check_key k;
  let was_absent =
    with_bucket h.table k (fun pairs ->
        let i = Pair_bucket.find pairs k in
        let v = f (Pair_bucket.binding pairs i) in
        (i < 0, Some (Pair_bucket.set pairs i (k, v))))
  in
  Core.after_insert h.table h.local ~key:k ~resp:was_absent

let get h k =
  Hashset_intf.check_key k;
  let hn = Atomic.get h.table.Core.head in
  match Atomic.get hn.Core.buckets.(k land hn.Core.mask) with
  | Node n -> Pair_bucket.lookup n.elems k
  | Uninit ->
    let slot =
      match Atomic.get hn.Core.pred with
      | Some s -> s.Core.buckets.(k land s.Core.mask)
      | None -> hn.Core.buckets.(k land hn.Core.mask)
    in
    Pair_bucket.lookup (Cow_bucket.contents (Atomic.get slot)) k

let mem h k = Option.is_some (get h k)
let bindings t = Array.to_list (Core.elements t)
let cardinal = Core.cardinal
let iter f t = List.iter (fun (k, v) -> f k v) (bindings t)
let fold f t init = List.fold_left (fun acc (k, v) -> f k v acc) init (bindings t)
let bucket_count = Core.bucket_count
let resize_stats = Core.resize_stats
let force_resize h ~grow = Core.resize h.table grow
let bucket_sizes = Core.bucket_sizes
let inspect t = Core.inspect t ~announce_pending:0

(* The lock-free map announces nothing; an always-empty watchdog
   source, as in Hashset_intf's non-announcing tables. *)
let pending_ops _ = [||]

let check_invariants = Core.check_invariants
