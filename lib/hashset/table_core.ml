(** The HNode scaffolding shared by every resizable table (Figure 2 of
    the paper, minus APPLY and CONTAINS): the versioned bucket array,
    lazy bucket initialization by freeze-and-migrate ([init_bucket],
    lines 38-51), the cooperative sweep, the RESIZE operation (lines
    19-28), the policy hooks, the refinement mapping of Figure 3, and
    the structural checks.

    A table is a list of HNodes of length at most two: [head] and, while
    a resize is being absorbed, [head]'s predecessor. Bucket [i] of the
    head starts out uninitialized and is initialized on first touch by
    freezing the corresponding predecessor bucket(s) and copying the
    split (grow) or merged (shrink) entries. Freezing first is what lets
    entries move without loss or duplication: the frozen buckets remain
    the logical truth (the refinement mapping of Figure 3) until the new
    bucket is installed by CAS, an abstract-state-preserving step.

    The core is a functor over the bucket ({!BUCKET}): what one slot of
    the bucket array holds and how it freezes. Two bucket layouts are
    built here too: {!Fset}, a slot holding an FSet object, and
    {!Wf_slots}, a slot holding a wait-free FSetNode inline. The
    variants keep their own operation paths (APPLY, CONTAINS) and read
    the records below directly, so their lookups make no call through
    the functor; the wait-free ones announce through {!Announce}. *)

module Atomic = Nbhash_util.Nb_atomic

(** The entries of one bucket layout: keys for sets and (key, value)
    pairs for maps; ['v] is the map's value type (unused by sets). *)
module type KEYS = sig
  type 'v elt

  val split : 'v elt array -> mask:int -> target:int -> 'v elt array
  (** The entries whose {!hash} land [mask] is [target]. *)

  val merge : 'v elt array -> 'v elt array -> 'v elt array
  (** Union of two key-disjoint entry arrays. *)

  val hash : 'v elt -> int
  (** The non-negative hash that places an entry: bucket [hash e land
      mask]. *)

  val same_key : 'v elt -> 'v elt -> bool
end

(** One bucket layout. A slot is the value held by one atomic of the
    bucket array. *)
module type BUCKET = sig
  include KEYS

  type 'v slot

  type side
  (** Per-HNode state kept beside the slots, made by {!make_side}: the
      wait-free layouts' per-bucket freeze-intent flags, [unit] for the
      others. *)

  val uninit : 'v slot
  (** The nil bucket. A constant: the core tests a slot against it
      physically. *)

  val make_side : int -> side
  (** [make_side size] for a fresh HNode of [size] buckets. *)

  val build : 'v elt array -> 'v slot
  (** A fresh mutable bucket holding the given entries (pairwise
      distinct keys; ownership of the array is taken). *)

  val freeze : side -> 'v slot Atomic.t array -> int -> 'v elt array
  (** [freeze side slots i] renders initialized bucket [i] of a
      predecessor HNode immutable and returns its final entries.
      Idempotent; every caller gets the same entries. *)

  val size : 'v slot -> int
  (** Entry count of an initialized slot, for the resize policy. *)

  val contents : 'v slot -> 'v elt array
  (** Logical entries of an initialized slot, including the effect of
      a linearized but unfinished operation. *)

  val is_frozen : 'v slot -> bool
  (** Of an initialized slot. *)
end

(* Integer keys, as every set variant stores them. *)
module Int_keys = struct
  type 'v elt = int

  let split = Nbhash_fset.Intset.filter_mask
  let merge = Nbhash_fset.Intset.disjoint_union
  let hash k = k
  let same_key = Int.equal
end

(* [split] for any entry type, given its [hash]. Keeps [elems] itself
   when every entry stays. *)
let split_by hash elems ~mask ~target =
  let keep e = hash e land mask = target in
  let count = Array.fold_left (fun c e -> if keep e then c + 1 else c) 0 elems in
  if count = Array.length elems then elems
  else begin
    let kept = ref [] in
    for j = Array.length elems - 1 downto 0 do
      if keep elems.(j) then kept := elems.(j) :: !kept
    done;
    Array.of_list !kept
  end

module Make (B : BUCKET) = struct
  module Tm = Nbhash_telemetry.Global
  module Ev = Nbhash_telemetry.Event

  type 'v hnode = {
    buckets : 'v B.slot Atomic.t array;
    side : B.side;
    size : int;
    mask : int;
    pred : 'v hnode option Atomic.t;
    sweep : Sweep.t;
        (* chunk cursor for the cooperative migration of THIS HNode's
           buckets out of [pred]; unused (and never claimed from) on
           HNodes created without a predecessor *)
    bucket_size : int -> int;
        (* current size of bucket [i], 0 while uninitialized (forcing
           its migration just to measure it would defeat laziness): the
           resize policy's probe, made once per HNode so that the update
           hooks allocate no closure for it *)
  }

  type 'v t = {
    head : 'v hnode Atomic.t;
    policy : Policy.t;
    count : Policy.Counter.shared;  (* approximate, for Load_factor *)
    grows : int Atomic.t;
    shrinks : int Atomic.t;
  }

  let make_hnode ~size ~pred =
    let buckets = Array.init size (fun _ -> Atomic.make B.uninit) in
    {
      buckets;
      side = B.make_side size;
      size;
      mask = size - 1;
      pred = Atomic.make pred;
      sweep = Sweep.make ~total:size;
      bucket_size =
        (fun i ->
          let b = Atomic.get buckets.(i) in
          if b == B.uninit then 0 else B.size b);
    }

  (* Unlike the paper's one-bucket initial table, a fresh table may be
     presized; every bucket of a pred-less HNode must be initialized
     (Invariant 11), so initialize them all. *)
  let create policy =
    Policy.validate policy;
    let hn = make_hnode ~size:policy.Policy.init_buckets ~pred:None in
    Array.iter (fun b -> Atomic.set b (B.build [||])) hn.buckets;
    {
      head = Atomic.make hn;
      policy;
      count = Policy.Counter.make_shared ();
      grows = Atomic.make 0;
      shrinks = Atomic.make 0;
    }

  let migrating hn = Atomic.get hn.pred != None

  (* Initialize bucket [i] of [hn] from its predecessor bucket(s):
     freeze them, then split or merge their entries. The CAS publishes
     the new bucket; losing the race to a helping thread is fine — the
     caller re-reads the slot and finds whoever won. *)
  let init_bucket hn i =
    if Atomic.get hn.buckets.(i) == B.uninit then
      match Atomic.get hn.pred with
      | Some s ->
        let elems =
          if hn.size = s.size * 2 then
            B.split (B.freeze s.side s.buckets (i land s.mask)) ~mask:hn.mask
              ~target:i
          else
            B.merge
              (B.freeze s.side s.buckets i)
              (B.freeze s.side s.buckets (i + hn.size))
        in
        if Atomic.compare_and_set hn.buckets.(i) B.uninit (B.build elems)
        then begin
          (* Only the installing thread accounts the migration, so the
             keys_migrated total equals the table cardinality after one
             full migration even when helpers race. *)
          Tm.emit_arg Ev.Bucket_init i;
          Tm.add Ev.Keys_migrated (Array.length elems)
        end
      | None -> ()

  (* Cooperative sweep plumbing: migrating bucket [i] is exactly the
     idempotent lazy step, and completing the sweep discharges
     Invariant 11's condition for cutting the predecessor loose
     early. *)
  let sweep_complete hn () = Atomic.set hn.pred None

  (* One helping step on the way through a migrating table: claim (at
     most) one chunk of uninitialized buckets of the head and migrate
     it. Called from the update-path policy hooks, so every active
     writer chips in instead of leaving the whole rehash to whoever
     faults on an uninitialized bucket. *)
  let help_migration t hn =
    let m = t.policy.Policy.migration in
    if m.Policy.eager && migrating hn then
      Sweep.help hn.sweep ~chunk:m.Policy.chunk
        ~max_helpers:m.Policy.max_helpers ~migrate:(init_bucket hn)
        ~on_complete:(sweep_complete hn)

  (* RESIZE: force full migration into the head HNode, cut the
     now-immutable predecessor loose, and install a double- or
     half-sized successor. The head CAS is the only step that changes
     which HNode is current, and it preserves the abstract set
     (Lemma 14). The resizer first drains the sweep cursor (so its
     share of the work is accounted as sweep participation), then
     falls through to the paper's index loop, which doubles as the
     catch-up pass for chunks still in flight on stalled helpers —
     never waiting on them keeps RESIZE's progress argument intact. *)
  let resize t grow =
    let hn = Atomic.get t.head in
    let within_bounds =
      if grow then hn.size * 2 <= t.policy.Policy.max_buckets
      else hn.size / 2 >= t.policy.Policy.min_buckets
    in
    if (hn.size > 1 || grow) && within_bounds then begin
      let start_ns = Tm.span_begin Ev.Resize_span in
      let m = t.policy.Policy.migration in
      if m.Policy.eager && migrating hn then
        Sweep.drain hn.sweep ~chunk:m.Policy.chunk
          ~migrate:(init_bucket hn) ~on_complete:(sweep_complete hn);
      for i = 0 to hn.size - 1 do
        init_bucket hn i
      done;
      if m.Policy.eager then Sweep.finish hn.sweep;
      Atomic.set hn.pred None
      [@nbhash.cas_ok
      "one-way Some -> None: every writer publishes the same final value \
       once the sweep is complete"];
      let size = if grow then hn.size * 2 else hn.size / 2 in
      let hn' = make_hnode ~size ~pred:(Some hn) in
      if Atomic.compare_and_set t.head hn hn' then begin
        ignore
          (Atomic.fetch_and_add (if grow then t.grows else t.shrinks) 1);
        Tm.emit_arg (if grow then Ev.Resize_grow else Ev.Resize_shrink) size;
        Tm.record_span Ev.Resize_span ~start_ns
      end
      else
        (* Lost the head CAS: the migration work still happened, but
           this was not a resize — balance the trace span without an
           observation. *)
        Tm.span_abort Ev.Resize_span
    end

  let bucket_count t = (Atomic.get t.head).size

  let resize_stats t =
    {
      Hashset_intf.grows = Atomic.get t.grows;
      shrinks = Atomic.get t.shrinks;
    }

  (* Policy plumbing: every update ends here. [key] is the hash that
     placed the update's entry. *)
  let after_insert t local ~key ~resp =
    Policy.Trigger.note_insert local ~resp;
    let hn = Atomic.get t.head in
    help_migration t hn;
    if
      Policy.Trigger.want_grow t.policy local ~cur_buckets:hn.size
        ~migrating:(migrating hn)
        ~inserted_bucket_size:(fun () -> hn.bucket_size (key land hn.mask))
    then resize t true

  let after_remove t local ~resp =
    Policy.Trigger.note_remove local ~resp;
    let hn = Atomic.get t.head in
    help_migration t hn;
    if
      Policy.Trigger.want_shrink t.policy local ~cur_buckets:hn.size
        ~migrating:(migrating hn) ~sample_bucket_size:hn.bucket_size
    then resize t false

  (* Contents of a bucket known to be initialized: any predecessor
     bucket (Invariant 12: a resize initializes every bucket before
     publishing the new HNode), or a head bucket once the predecessor
     is gone (Invariant 11). *)
  let contents_at hn j = B.contents (Atomic.get hn.buckets.(j))

  (* The refinement mapping of Figure 3, reified: BuckSet(t, i) is the
     bucket's own entries when initialized, and the split/merge of the
     predecessor's entries otherwise. If the predecessor vanished
     meanwhile, the bucket has been initialized (Invariant 11) and is
     re-read. Exact in quiescent states. *)
  let bucket_set hn i =
    let b = Atomic.get hn.buckets.(i) in
    if b != B.uninit then B.contents b
    else
      match Atomic.get hn.pred with
      | Some s ->
        if hn.size = s.size * 2 then
          B.split (contents_at s (i land s.mask)) ~mask:hn.mask ~target:i
        else B.merge (contents_at s i) (contents_at s (i + hn.size))
      | None -> contents_at hn i

  (* [Array.length (bucket_set hn i)], without building the split or
     merged array of a bucket the migration has not initialised yet. *)
  let bucket_set_size hn i =
    let b = Atomic.get hn.buckets.(i) in
    if b != B.uninit then Array.length (B.contents b)
    else
      match Atomic.get hn.pred with
      | Some s when hn.size = s.size * 2 ->
        Array.fold_left
          (fun c e -> if B.hash e land hn.mask = i then c + 1 else c)
          0
          (contents_at s (i land s.mask))
      | Some s ->
        Array.length (contents_at s i)
        + Array.length (contents_at s (i + hn.size))
      | None -> Array.length (contents_at hn i)

  let elements t =
    let hn = Atomic.get t.head in
    Array.concat (List.init hn.size (bucket_set hn))

  let bucket_sizes t =
    let hn = Atomic.get t.head in
    Array.init hn.size (bucket_set_size hn)

  let cardinal t = Array.fold_left ( + ) 0 (bucket_sizes t)

  (* Structural health snapshot. [frozen_buckets] counts frozen
     buckets reachable from the head and its predecessor; the head's
     own buckets are never frozen (only predecessors freeze), so a
     quiescent table reports 0. [migration_progress] is the fraction
     of head buckets already initialized — the same quantity the
     resizer's index loop drives to 1. Racy but safe under concurrent
     updates. *)
  let inspect t ~announce_pending =
    let hn = Atomic.get t.head in
    let sizes = Array.init hn.size (bucket_set_size hn) in
    let initialized = ref 0 in
    let frozen = ref 0 in
    let scan ~head b =
      let b = Atomic.get b in
      if b != B.uninit then begin
        if head then incr initialized;
        if B.is_frozen b then incr frozen
      end
    in
    Array.iter (scan ~head:true) hn.buckets;
    let pred = Atomic.get hn.pred in
    Option.iter (fun s -> Array.iter (scan ~head:false) s.buckets) pred;
    let migrating = Option.is_some pred in
    Hashset_intf.make_view ~sizes ~frozen_buckets:!frozen ~migrating
      ~migration_progress:
        (if migrating then float_of_int !initialized /. float_of_int hn.size
         else 1.0)
      ~announce_pending

  let fail fmt = Format.kasprintf failwith fmt

  (* Structural sanity for quiescent states: entry placement over the
     whole refinement mapping, the nil-bucket invariants (11 and 12),
     the frozen-predecessor invariant (13), and key uniqueness. *)
  let check_invariants t =
    let hn = Atomic.get t.head in
    let pred = Atomic.get hn.pred in
    let initialized b = Atomic.get b != B.uninit in
    (match pred with
    | Some s ->
      if hn.size <> s.size * 2 && hn.size * 2 <> s.size then
        fail "head size %d not double or half of pred size %d" hn.size s.size;
      Array.iteri
        (fun j b -> if not (initialized b) then fail "pred bucket %d is nil" j)
        s.buckets
    | None ->
      Array.iteri
        (fun i b ->
          if not (initialized b) then
            fail "bucket %d nil in a table without predecessor" i)
        hn.buckets);
    let frozen s j = B.is_frozen (Atomic.get s.buckets.(j)) in
    Array.iteri
      (fun i b ->
        if initialized b then
          match pred with
          | Some s when hn.size = s.size * 2 ->
            if not (frozen s (i land s.mask)) then
              fail "predecessor of initialized bucket %d is not frozen" i
          | Some s ->
            if not (frozen s i && frozen s (i + hn.size)) then
              fail "predecessors of initialized bucket %d are not frozen" i
          | None -> ())
      hn.buckets;
    let seen = Hashtbl.create 64 in
    for i = 0 to hn.size - 1 do
      Array.iter
        (fun e ->
          let h = B.hash e in
          if h land hn.mask <> i then
            fail "key hashed to %d misplaced in bucket %d of %d" h i hn.size;
          if List.exists (B.same_key e) (Hashtbl.find_all seen h) then
            fail "duplicate key hashed to %d in abstract set" h;
          Hashtbl.add seen h e)
        (bucket_set hn i)
    done
end

(* The FSet-backed bucket of LFArray, LFList, LFFlat, WFArray and the
   other FSet tables: each slot holds the FSet object itself, and one
   empty FSet made here, never handed out and compared physically,
   stands for the nil bucket. A lookup then loads the FSet without an
   option box in between. *)
module Fset (F : Nbhash_fset.Fset_intf.CORE) = struct
  module Bucket = struct
    include Int_keys

    type 'v slot = F.t
    type side = unit

    let uninit = F.create [||]
    let make_side _ = ()
    let build elems = F.create elems
    let freeze () slots i =
      let b = Atomic.get slots.(i) in
      (* A predecessor's buckets are all initialised. *)
      assert (b != uninit);
      F.freeze b
    let size = F.size
    let contents = F.elements
    let is_frozen = F.is_frozen
  end

  include Make (Bucket)

  (* Locate (initializing if needed) the FSet of [hn] that owns key
     [k]. *)
  let bucket_for hn k =
    let i = k land hn.mask in
    let b = Atomic.get hn.buckets.(i) in
    if b != Bucket.uninit then b
    else begin
      init_bucket hn i;
      let b = Atomic.get hn.buckets.(i) in
      assert (b != Bucket.uninit);
      b
    end

  (* CONTAINS (lines 11-18): search the head bucket; if it is
     uninitialized, search through the predecessor instead — unless
     the predecessor vanished meanwhile, in which case the head bucket
     must have been initialized and is re-read. *)
  let contains t k =
    let hn = Atomic.get t.head in
    let b = Atomic.get hn.buckets.(k land hn.mask) in
    if b != Bucket.uninit then F.has_member b k
    else begin
      Tm.emit_arg Ev.Contains_pred k;
      let b =
        match Atomic.get hn.pred with
        | Some s -> Atomic.get s.buckets.(k land s.mask)
        | None -> Atomic.get hn.buckets.(k land hn.mask)
      in
      assert (b != Bucket.uninit);
      F.has_member b k
    end
end

(* The wait-free-slot bucket of AdaptiveOpt and the wait-free map: each
   slot holds a {!Nbhash_fset.Wf_slot} node inline, and the per-bucket
   freeze-intent flags ride beside the slots. [Op] is what
   {!Announce.Make} needs to drive one of its operations. *)
module Wf_slots
    (K : KEYS)
    (P : Nbhash_fset.Wf_slot.PAYLOAD with type 'v elems = 'v K.elt array) =
struct
  module S = Nbhash_fset.Wf_slot.Make (P)

  module Bucket = struct
    include K

    type 'v slot = 'v S.node
    type side = bool Atomic.t array

    let uninit = S.Uninit
    let make_side size = Array.init size (fun _ -> Atomic.make false)
    let build = S.fresh
    let freeze flags slots i = S.freeze flags.(i) slots.(i)
    let size = S.size
    let contents = S.contents
    let is_frozen = S.is_frozen
  end

  include Make (Bucket)

  (* INVOKE on the bucket of [hn] that owns [op]'s key: [false] only if
     that bucket froze first, which implies the head changed. *)
  let invoke_bucket hn op =
    let i = op.S.key land hn.mask in
    if Atomic.get hn.buckets.(i) == S.Uninit then init_bucket hn i;
    S.invoke hn.buckets.(i) hn.side.(i) op

  module Op = struct
    type 'v ctx = 'v t
    type 'v action = 'v P.action
    type 'v result = 'v P.result
    type 'v op = 'v S.op

    let infinity_prio = S.infinity_prio
    let make_op = S.make_op
    let op_prio op = Atomic.get op.S.prio
    let response op = Atomic.get op.S.result

    (* Re-resolving the bucket after a failed invoke makes progress;
       stops as soon as the operation is done, possibly by a helper. *)
    let rec drive t op =
      if not (S.op_is_done op || invoke_bucket (Atomic.get t.head) op) then
        drive t op
  end
end
