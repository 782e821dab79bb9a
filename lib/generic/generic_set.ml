module Atomic = Nbhash_util.Nb_atomic
module Policy = Nbhash.Policy
module Cow_bucket = Nbhash.Cow_bucket
module Tm = Nbhash_telemetry.Global

(* File-scope so every Make instantiation shares one id per loop. *)
let site_freeze = Nbhash_telemetry.Site.register "generic_set/freeze_slot"
let site_stale = Nbhash_telemetry.Site.register "generic_set/stale_bucket"
let site_add = Nbhash_telemetry.Site.register "generic_set/add"
let site_del = Nbhash_telemetry.Site.register "generic_set/del"

module Make (K : Hashtbl.HashedType) = struct
  let hash k = K.hash k land max_int

  (* The LFArrayOpt layout over [K.t] keys, split by hash bits. *)
  module Bucket = struct
    include Cow_bucket

    type 'v elt = K.t
    type 'v slot = K.t Cow_bucket.t

    let freeze () slots i = freeze_slot site_freeze slots.(i)
    let hash = hash
    let same_key = K.equal
    let split elems = Nbhash.Table_core.split_by hash elems
    let merge = Array.append
  end

  module Core = Nbhash.Table_core.Make (Bucket)

  type t = unit Core.t
  type handle = { table : t; local : Policy.Trigger.local }

  let mem_elems elems k =
    let n = Array.length elems in
    let rec go i = i < n && (K.equal elems.(i) k || go (i + 1)) in
    go 0

  let add_elems elems k =
    let n = Array.length elems in
    let b = Array.make (n + 1) k in
    Array.blit elems 0 b 0 n;
    b

  let remove_elems elems k =
    let n = Array.length elems in
    let rec index i = if K.equal elems.(i) k then i else index (i + 1) in
    let i = index 0 in
    let b = Array.sub elems 0 (n - 1) in
    if i < n - 1 then b.(i) <- elems.(n - 1);
    b
  [@@nbhash.plain_ok
    "copy-on-write: [b] is freshly allocated here and stays private until \
     published by a bucket CAS"]

  let create ?(policy = Policy.default) () = Core.create policy
  let seed = Atomic.make 0x9e1

  let register table =
    {
      table;
      local =
        Policy.Trigger.make_local table.Core.count
          ~seed:(Atomic.fetch_and_add seed 1);
    }

  let unregister h = Policy.Trigger.flush h.local

  type kind = Add | Del

  let rec run_op t kind k h =
    let hn = Atomic.get t.Core.head in
    let i = h land hn.Core.mask in
    let slot = hn.Core.buckets.(i) in
    match Atomic.get slot with
    | Cow_bucket.Uninit ->
      Core.init_bucket hn i;
      run_op t kind k h
    | Cow_bucket.Node n as cur ->
      if not n.ok then begin
        Tm.cas_retry site_stale;
        run_op t kind k h
      end
      else begin
        let present = mem_elems n.elems k in
        match kind with
        | Add ->
          if present then false
          else if
            Atomic.compare_and_set slot cur
              (Cow_bucket.Node { elems = add_elems n.elems k; ok = true })
          then true
          else begin
            Tm.cas_retry site_add;
            run_op t kind k h
          end
        | Del ->
          if not present then false
          else if
            Atomic.compare_and_set slot cur
              (Cow_bucket.Node { elems = remove_elems n.elems k; ok = true })
          then true
          else begin
            Tm.cas_retry site_del;
            run_op t kind k h
          end
      end

  let add h k =
    let hk = hash k in
    let resp = run_op h.table Add k hk in
    Core.after_insert h.table h.local ~key:hk ~resp;
    resp

  let remove h k =
    let resp = run_op h.table Del k (hash k) in
    Core.after_remove h.table h.local ~resp;
    resp

  let mem h k =
    let hn = Atomic.get h.table.Core.head in
    let i = hash k land hn.Core.mask in
    match Atomic.get hn.Core.buckets.(i) with
    | Cow_bucket.Node n -> mem_elems n.elems k
    | Cow_bucket.Uninit ->
      let slot =
        match Atomic.get hn.Core.pred with
        | Some s -> s.Core.buckets.(hash k land s.Core.mask)
        | None -> hn.Core.buckets.(i)
      in
      mem_elems (Cow_bucket.contents (Atomic.get slot)) k

  let elements t = Array.to_list (Core.elements t)
  let cardinal = Core.cardinal
  let bucket_count = Core.bucket_count
  let resize_stats = Core.resize_stats
  let force_resize h ~grow = Core.resize h.table grow
  let check_invariants = Core.check_invariants
end
