module Atomic = Nbhash_util.Nb_atomic

module Bits = Nbhash_util.Bits
module Policy = Nbhash.Policy
module Hashset_intf = Nbhash.Hashset_intf

let segment_bits = 10
let segment_size = 1 lsl segment_bits
let max_segments = 1 lsl 16

(* A bucket's slot holds its dummy cell once initialised, and the
   private cell [no_dummy] before; a directory entry holds its segment
   once allocated, and the empty array before. Both are compared
   physically, so a lookup loads the dummy without an option box. *)
type segment = Ordered_list.node Atomic.t array

let no_dummy = Ordered_list.make_node 0
let no_segment : segment = [||]

type t = {
  top : segment Atomic.t array;  (* one entry per segment of max_buckets *)
  head : Ordered_list.node;  (* the dummy of bucket 0 *)
  size : int Atomic.t;
      (* current bucket count, a power of two; read by every operation,
         so padded away from [count]'s writes *)
  count : int Atomic.t;  (* element count, drives growth; padded *)
  load_factor : int;
  max_buckets : int;
  grow_enabled : bool;
  grows : int Atomic.t;
}

type handle = t

let name = "SplitOrder"

let new_segment () : segment =
  Array.init segment_size (fun _ -> Atomic.make no_dummy)

let create ?(policy = Policy.default) ?max_threads () =
  ignore max_threads;
  Policy.validate policy;
  let max_buckets = min policy.Policy.max_buckets (segment_size * max_segments) in
  let head = Ordered_list.make_head () in
  let seg0 = new_segment () in
  Atomic.set seg0.(0) head;
  (* The directory covers [max_buckets] and no more: a table that can
     never use a segment does not pay for its directory entry. *)
  let segments = (max_buckets + segment_size - 1) / segment_size in
  let top = Array.init segments (fun _ -> Atomic.make no_segment) in
  Atomic.set top.(0) seg0;
  {
    top;
    head;
    size = Atomic.make_contended policy.Policy.init_buckets;
    count = Atomic.make_contended 0;
    load_factor =
      (match policy.Policy.heuristic with
      | Policy.Load_factor { grow; _ } -> max 1 (int_of_float grow)
      | Policy.Bucket_size { grow_threshold; _ } -> max 1 grow_threshold);
    max_buckets;
    grow_enabled = policy.Policy.enabled;
    grows = Atomic.make 0;
  }

let register t = t
let unregister _ = ()

let segment_for t i =
  let slot = t.top.(i lsr segment_bits) in
  let seg = Atomic.get slot in
  if seg != no_segment then seg
  else begin
    ignore (Atomic.compare_and_set slot no_segment (new_segment ()))
    [@nbhash.cas_ok
      "segment publish: a losing initializer discards its fresh segment and \
       reads the winner's on the next line"];
    Atomic.get slot
  end

(* Fetch bucket [i]'s dummy node, creating it (and, recursively, its
   parent's) on first touch. The recursion depth is the popcount of
   [i]. Publishing with a plain set is fine: racing initializers
   obtain the same node from [insert_or_find]. *)
let rec bucket_dummy t i =
  let slot = (segment_for t i).(i land (segment_size - 1)) in
  let d = Atomic.get slot in
  if d != no_dummy then d
  else begin
    let parent = if i = 0 then t.head else bucket_dummy t (Bits.unset_msb i) in
    let d = Ordered_list.insert_or_find ~start:parent (Bits.so_dummy_key i) in
    Atomic.set slot d
    [@nbhash.cas_ok
      "idempotent publish: racing initializers obtain the same node from \
       [insert_or_find], so every writer stores the same value"];
    d
  end

let bucket_for t k =
  let size = Atomic.get t.size in
  bucket_dummy t (k land (size - 1))

let maybe_grow t =
  if t.grow_enabled then begin
    let size = Atomic.get t.size in
    if
      Atomic.get t.count > size * t.load_factor
      && size * 2 <= t.max_buckets
      && Atomic.compare_and_set t.size size (size * 2)
    then ignore (Atomic.fetch_and_add t.grows 1)
  end

let insert t k =
  Hashset_intf.check_key k;
  let d = bucket_for t k in
  if Ordered_list.insert ~start:d (Bits.so_regular_key k) then begin
    ignore (Atomic.fetch_and_add t.count 1);
    maybe_grow t;
    true
  end
  else false

let remove t k =
  Hashset_intf.check_key k;
  let d = bucket_for t k in
  if Ordered_list.remove ~start:d (Bits.so_regular_key k) then begin
    ignore (Atomic.fetch_and_add t.count (-1));
    true
  end
  else false

let contains t k =
  Hashset_intf.check_key k;
  Ordered_list.mem ~start:(bucket_for t k) (Bits.so_regular_key k)

let bucket_count t = Atomic.get t.size

(* Growing is the only direction the split-ordered list supports. *)
let force_resize t ~grow =
  if grow then begin
    let size = Atomic.get t.size in
    if size * 2 <= t.max_buckets && Atomic.compare_and_set t.size size (size * 2)
    then ignore (Atomic.fetch_and_add t.grows 1)
  end

let resize_stats t =
  { Hashset_intf.grows = Atomic.get t.grows; shrinks = 0 }

let so_key_to_key so = Bits.reverse62 so land ((1 lsl 61) - 1)

let elements t =
  Ordered_list.keys_from ~start:t.head ()
  |> List.filter (fun so -> so land 1 = 1)
  |> List.map so_key_to_key
  |> Array.of_list

let cardinal t = Array.length (elements t)

let bucket_sizes t =
  let size = Atomic.get t.size in
  let sizes = Array.make size 0 in
  Array.iter
    (fun k ->
      let b = k land (size - 1) in
      sizes.(b) <- sizes.(b) + 1)
    (elements t);
  sizes

let dummy_count t =
  (* The head dummy is not linked after itself, so count it
     explicitly. *)
  1
  + (Ordered_list.keys_from ~start:t.head ()
    |> List.filter (fun so -> so land 1 = 0)
    |> List.length)

let fail fmt = Format.kasprintf failwith fmt

let check_invariants t =
  Ordered_list.check_sorted ~start:t.head;
  let size = Atomic.get t.size in
  if not (Bits.is_pow2 size) then fail "size %d not a power of two" size;
  (* Every key must be reachable from its own bucket's dummy. *)
  Array.iter
    (fun k ->
      if not (Ordered_list.mem ~start:(bucket_for t k) (Bits.so_regular_key k))
      then fail "key %d not reachable from its bucket dummy" k)
    (elements t)

(* No announce array: nothing for the liveness watchdog to sample. *)
let pending_ops _ = [||]

(* Buckets split incrementally and never freeze: no migration window
   to report. *)
let inspect t =
  Hashset_intf.make_view ~sizes:(bucket_sizes t) ~frozen_buckets:0
    ~migrating:false ~migration_progress:1.0 ~announce_pending:0
