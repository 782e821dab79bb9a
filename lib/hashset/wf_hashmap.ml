module Atomic = Nbhash_util.Nb_atomic

(* A bucket slot holds the wait-free FSetNode inline, over a pair-array
   payload: the Figure 6 protocol with the set payload generalized,
   and the per-bucket freeze-intent flags beside the slots. *)
module P = struct
  let id = "wf_hashmap"

  type 'v elems = 'v Pair_bucket.elt array
  type 'v action = Put of 'v | Del | Upd of ('v option -> 'v)
  type 'v result = 'v option  (* the previous binding *)

  let no_result = None
  let length = Array.length
  let find = Pair_bucket.find
  let result pairs at _ = Pair_bucket.binding pairs at

  let successor pairs at k = function
    | Put v -> Pair_bucket.set pairs at (k, v)
    | Del -> if at < 0 then pairs else Pair_bucket.remove pairs at
    | Upd f -> Pair_bucket.set pairs at (k, f (Pair_bucket.binding pairs at))
end

module Core = Table_core.Wf_slots (Pair_bucket) (P)
module S = Core.S
module A = Announce.Make (Core.Op)

type 'v t = { core : 'v Core.t; announce : 'v A.t }

type 'v handle = {
  table : 'v t;
  tid : int;
  local : Policy.Trigger.local;
}

let create ?(policy = Policy.default) ?(max_threads = 128) () =
  { core = Core.create policy; announce = A.create ~max_threads ~inert:P.Del }

let register table =
  let tid = A.register table.announce in
  {
    table;
    tid;
    local = Policy.Trigger.make_local table.core.Core.count ~seed:(0x3afe + tid);
  }

let unregister h = Policy.Trigger.flush h.local
let apply h action k = A.apply h.table.announce h.table.core ~tid:h.tid action k

(* --- public operations --- *)

let put h k v =
  Hashset_intf.check_key k;
  let prev = apply h (P.Put v) k in
  Core.after_insert h.table.core h.local ~key:k ~resp:(Option.is_none prev);
  prev

let remove h k =
  Hashset_intf.check_key k;
  let prev = apply h P.Del k in
  Core.after_remove h.table.core h.local ~resp:(Option.is_some prev);
  prev

let update h k f =
  Hashset_intf.check_key k;
  let prev = apply h (P.Upd f) k in
  Core.after_insert h.table.core h.local ~key:k ~resp:(Option.is_none prev)

(* [k]'s binding in an initialized node. A pending operation on another
   key leaves it alone, and one on [k] decides it; either way only
   [k]'s own pair is read. *)
let node_get node k =
  match node with
  | S.Uninit -> assert false
  | S.N n -> (
    match Atomic.get n.status with
    | S.Pending op when op.key = k -> (
      match op.action with
      | P.Put v -> Some v
      | P.Del -> None
      | P.Upd f -> Some (f (Pair_bucket.lookup n.elems k)))
    | S.Empty | S.Frozen | S.Pending _ -> Pair_bucket.lookup n.elems k)

let get h k =
  Hashset_intf.check_key k;
  let hn = Atomic.get h.table.core.Core.head in
  match Atomic.get hn.Core.buckets.(k land hn.Core.mask) with
  | S.N _ as node -> node_get node k
  | S.Uninit -> (
    match Atomic.get hn.Core.pred with
    | Some s -> node_get (Atomic.get s.Core.buckets.(k land s.Core.mask)) k
    | None -> node_get (Atomic.get hn.Core.buckets.(k land hn.Core.mask)) k)

let mem h k = Option.is_some (get h k)
let bindings t = Array.to_list (Core.elements t.core)
let cardinal t = Core.cardinal t.core
let bucket_count t = Core.bucket_count t.core
let resize_stats t = Core.resize_stats t.core
let force_resize h ~grow = Core.resize h.table.core grow
let bucket_sizes t = Core.bucket_sizes t.core
let pending_ops t = A.pending_ops t.announce

let inspect t =
  Core.inspect t.core ~announce_pending:(Array.length (pending_ops t))

let check_invariants t = Core.check_invariants t.core
