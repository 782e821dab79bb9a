module Atomic = Nbhash_util.Nb_atomic
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event

let infinity_prio = max_int

type 'v action = Put of 'v | Del | Upd of ('v option -> 'v)

type 'v wop = {
  action : 'v action;
  key : int;
  result : 'v option Atomic.t;  (* the previous binding *)
  prio : int Atomic.t;
}

type 'v opslot = Empty | Frozen | Pending of 'v wop

(* A bucket slot holds the wait-free FSetNode inline (pair-array
   payload). *)
type 'v wslot = Uninit | N of { pairs : (int * 'v) array; op : 'v opslot Atomic.t }

let site_freeze = Nbhash_telemetry.Site.register "wf_hashmap/freeze"
let site_invoke = Nbhash_telemetry.Site.register "wf_hashmap/invoke"

let make_op action key ~prio =
  { action; key; result = Atomic.make None; prio = Atomic.make prio }

let op_is_done op = Atomic.get op.prio = infinity_prio
let fresh_node pairs = N { pairs; op = Atomic.make Empty }

(* Deterministic application of an operation to an immutable pair
   array: (previous binding, replacement array). All helpers compute
   the same answer from the same (node, op) pair. *)
let apply_action pairs op =
  let found = Pair_bucket.find pairs op.key in
  let prev = Option.map snd found in
  let pairs' =
    match (op.action, found) with
    | Put v, _ -> Pair_bucket.set pairs found (op.key, v)
    | Del, Some (i, _) -> Pair_bucket.remove pairs i
    | Del, None -> pairs
    | Upd f, _ -> Pair_bucket.set pairs found (op.key, f prev)
  in
  (prev, pairs')

(* --- the Figure 6 protocol on slots --- *)

let help_finish slot =
  match Atomic.get slot with
  | Uninit -> ()
  | N n as cur -> (
    match Atomic.get n.op with
    | Empty | Frozen -> ()
    | Pending op ->
      let prev, pairs = apply_action n.pairs op in
      Atomic.set op.result prev;
      Atomic.set op.prio infinity_prio;
      ignore (Atomic.compare_and_set slot cur (fresh_node pairs))
      [@nbhash.cas_ok
      "helping: all helpers derive the same successor node from the same \
       frozen (node, op) pair; exactly one CAS installs it"])

let rec do_freeze slot =
  match Atomic.get slot with
  | Uninit -> assert false
  | N n -> (
    match Atomic.get n.op with
    | Frozen -> n.pairs
    | Empty ->
      if Atomic.compare_and_set n.op Empty Frozen then begin
        Tm.emit Ev.Freeze;
        n.pairs
      end
      else begin
        Tm.cas_retry site_freeze;
        do_freeze slot
      end
    | Pending _ ->
      help_finish slot;
      do_freeze slot)

(* The pair-array entries on wait-free slots, with per-bucket
   freeze-intent flags beside them, as in AdaptiveOpt. *)
module Bucket = struct
  include Pair_bucket

  type 'v slot = 'v wslot
  type side = bool Atomic.t array

  let uninit = Uninit
  let make_side size = Array.init size (fun _ -> Atomic.make false)
  let build = fresh_node

  let freeze flags slots i =
    Atomic.set flags.(i) true;
    do_freeze slots.(i)

  let size = function Uninit -> assert false | N n -> Array.length n.pairs

  (* Logical contents, pending operation applied. *)
  let contents = function
    | Uninit -> assert false
    | N n -> (
      match Atomic.get n.op with
      | Empty | Frozen -> n.pairs
      | Pending op -> snd (apply_action n.pairs op))

  let is_frozen = function
    | Uninit -> assert false
    | N n -> (
      match Atomic.get n.op with Frozen -> true | Empty | Pending _ -> false)
end

module Core = Table_core.Make (Bucket)

type 'v t = {
  core : 'v Core.t;
  slots : 'v wop option Atomic.t array;
  counter : int Atomic.t;
  next_tid : int Atomic.t;
}

type 'v handle = {
  table : 'v t;
  tid : int;
  local : Policy.Trigger.local;
}

let create ?(policy = Policy.default) ?(max_threads = 128) () =
  {
    core = Core.create policy;
    slots = Array.init max_threads (fun _ -> Atomic.make None);
    counter = Atomic.make 0;
    next_tid = Atomic.make 0;
  }

let register table =
  let tid = Atomic.fetch_and_add table.next_tid 1 in
  if tid >= Array.length table.slots then
    failwith "register: max_threads handles already registered";
  {
    table;
    tid;
    local = Policy.Trigger.make_local table.core.Core.count ~seed:(0x3afe + tid);
  }

let unregister h = Policy.Trigger.flush h.local

let rec invoke hn i op =
  if op_is_done op then true
  else begin
    let slot = hn.Core.buckets.(i) in
    match Atomic.get slot with
    | Uninit -> assert false
    | N n -> (
      match Atomic.get n.op with
      | Frozen -> op_is_done op
      | Empty | Pending _ ->
        if Atomic.get hn.Core.side.(i) then begin
          ignore (do_freeze slot);
          op_is_done op
        end
        else begin
          match Atomic.get n.op with
          | Empty ->
            if op_is_done op then true
            else if Atomic.compare_and_set n.op Empty (Pending op) then begin
              help_finish slot;
              true
            end
            else begin
              Tm.cas_retry site_invoke;
              invoke hn i op
            end
          | Frozen -> op_is_done op
          | Pending _ ->
            help_finish slot;
            invoke hn i op
        end)
  end

let ensure_bucket hn k =
  let i = k land hn.Core.mask in
  (match Atomic.get hn.Core.buckets.(i) with
  | Uninit -> Core.init_bucket hn i
  | N _ -> ());
  i

(* --- announce-and-help APPLY (Figure 4) --- *)

let drive t op =
  let continue = ref (not (op_is_done op)) in
  while !continue do
    let hn = Atomic.get t.core.Core.head in
    let i = ensure_bucket hn op.key in
    if invoke hn i op then continue := false
    else continue := not (op_is_done op)
  done

let help_up_to t ~prio =
  for tid = 0 to Array.length t.slots - 1 do
    match Atomic.get t.slots.(tid) with
    | Some op when Atomic.get op.prio <= prio -> drive t op
    | Some _ | None -> ()
  done

let apply h action k =
  let t = h.table in
  let prio = Atomic.fetch_and_add t.counter 1 in
  let myop = make_op action k ~prio in
  Atomic.set t.slots.(h.tid) (Some myop);
  help_up_to t ~prio;
  Atomic.get myop.result

(* --- public operations --- *)

let put h k v =
  Hashset_intf.check_key k;
  let prev = apply h (Put v) k in
  Core.after_insert h.table.core h.local ~key:k ~resp:(Option.is_none prev);
  prev

let remove h k =
  Hashset_intf.check_key k;
  let prev = apply h Del k in
  Core.after_remove h.table.core h.local ~resp:(Option.is_some prev);
  prev

let update h k f =
  Hashset_intf.check_key k;
  let prev = apply h (Upd f) k in
  Core.after_insert h.table.core h.local ~key:k ~resp:(Option.is_none prev)

let get h k =
  Hashset_intf.check_key k;
  let hn = Atomic.get h.table.core.Core.head in
  let lookup slot =
    Option.map snd (Pair_bucket.find (Bucket.contents (Atomic.get slot)) k)
  in
  match Atomic.get hn.Core.buckets.(k land hn.Core.mask) with
  | N _ -> lookup hn.Core.buckets.(k land hn.Core.mask)
  | Uninit -> (
    match Atomic.get hn.Core.pred with
    | Some s -> lookup s.Core.buckets.(k land s.Core.mask)
    | None -> lookup hn.Core.buckets.(k land hn.Core.mask))

let mem h k = Option.is_some (get h k)
let bindings t = Array.to_list (Core.elements t.core)
let cardinal t = Core.cardinal t.core
let bucket_count t = Core.bucket_count t.core
let resize_stats t = Core.resize_stats t.core
let force_resize h ~grow = Core.resize h.table.core grow
let bucket_sizes t = Core.bucket_sizes t.core

(* Snapshot of the announce array for the liveness watchdog, as in
   Wf_common.announced: every announced-but-incomplete operation as
   (tid, priority). Priorities are unique per operation, so the same
   pair persisting across polls means one specific operation is stuck.
   Racy by design; see Watchdog. *)
let pending_ops t =
  let out = ref [] in
  for tid = Array.length t.slots - 1 downto 0 do
    match Atomic.get t.slots.(tid) with
    | Some op when not (op_is_done op) ->
      out := (tid, Atomic.get op.prio) :: !out
    | Some _ | None -> ()
  done;
  Array.of_list !out

let inspect t =
  Core.inspect t.core ~announce_pending:(Array.length (pending_ops t))

let check_invariants t = Core.check_invariants t.core
