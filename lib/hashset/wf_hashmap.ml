module Atomic = Nbhash_util.Nb_atomic

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

type 'v hnode = {
  buckets : 'v wslot Atomic.t array;
  flags : bool Atomic.t array;
  size : int;
  mask : int;
  pred : 'v hnode option Atomic.t;
  sweep : Sweep.t;
}

type 'v t = {
  head : 'v hnode Atomic.t;
  policy : Policy.t;
  count : Policy.Counter.shared;
  grows : int Atomic.t;
  shrinks : int Atomic.t;
  slots : 'v wop option Atomic.t array;
  counter : int Atomic.t;
  next_tid : int Atomic.t;
}

type 'v handle = {
  table : 'v t;
  tid : int;
  local : Policy.Trigger.local;
}

let make_op action key ~prio =
  { action; key; result = Atomic.make None; prio = Atomic.make prio }

let op_is_done op = Atomic.get op.prio = infinity_prio
let fresh_node pairs = N { pairs; op = Atomic.make Empty }

let make_hnode ~size ~pred =
  {
    buckets = Array.init size (fun _ -> Atomic.make Uninit);
    flags = Array.init size (fun _ -> Atomic.make false);
    size;
    mask = size - 1;
    pred = Atomic.make pred;
    sweep = Sweep.make ~total:size;
  }

let create ?(policy = Policy.default) ?(max_threads = 128) () =
  Policy.validate policy;
  let hn = make_hnode ~size:policy.Policy.init_buckets ~pred:None in
  Array.iter (fun b -> Atomic.set b (fresh_node [||])) hn.buckets;
  {
    head = Atomic.make hn;
    policy;
    count = Policy.Counter.make_shared ();
    grows = Atomic.make 0;
    shrinks = Atomic.make 0;
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
    local = Policy.Trigger.make_local table.count ~seed:(0x3afe + tid);
  }

let unregister h = Policy.Trigger.flush h.local

(* --- pair-array primitives (shared with Hashmap's layout) --- *)

let pairs_find pairs k =
  let n = Array.length pairs in
  let rec go i =
    if i >= n then None
    else begin
      let ki, v = pairs.(i) in
      if ki = k then Some (i, v) else go (i + 1)
    end
  in
  go 0

let pairs_put pairs k v =
  match pairs_find pairs k with
  | Some (i, _) ->
    let b = Array.copy pairs in
    b.(i) <- (k, v);
    b
  | None ->
    let n = Array.length pairs in
    let b = Array.make (n + 1) (k, v) in
    Array.blit pairs 0 b 0 n;
    b
[@@nbhash.plain_ok
  "copy-on-write: [b] is freshly allocated here and stays private until \
   published by a bucket CAS"]

let pairs_remove pairs i =
  let n = Array.length pairs in
  let b = Array.sub pairs 0 (n - 1) in
  if i < n - 1 then b.(i) <- pairs.(n - 1);
  b
[@@nbhash.plain_ok
  "copy-on-write: [b] is freshly allocated here and stays private until \
   published by a bucket CAS"]

let pairs_filter_mask pairs ~mask ~target =
  let keep (k, _) = k land mask = target in
  let count = ref 0 in
  Array.iter (fun p -> if keep p then incr count) pairs;
  if !count = Array.length pairs then pairs
  else begin
    let b = Array.make !count (0, snd pairs.(0)) in
    let j = ref 0 in
    Array.iter
      (fun p ->
        if keep p then begin
          b.(!j) <- p;
          incr j
        end)
      pairs;
    b
  end
[@@nbhash.plain_ok
  "copy-on-write: [b] is freshly allocated here and stays private until \
   published by a bucket CAS"]

(* Deterministic application of an operation to an immutable pair
   array: (previous binding, replacement array). All helpers compute
   the same answer from the same (node, op) pair. *)
let apply_action pairs op =
  let prev = Option.map snd (pairs_find pairs op.key) in
  let pairs' =
    match op.action with
    | Put v -> pairs_put pairs op.key v
    | Del -> (
      match pairs_find pairs op.key with
      | Some (i, _) -> pairs_remove pairs i
      | None -> pairs)
    | Upd f -> pairs_put pairs op.key (f prev)
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
      if Atomic.compare_and_set n.op Empty Frozen then n.pairs
      else do_freeze slot
    | Pending _ ->
      help_finish slot;
      do_freeze slot)

let freeze hn i =
  Atomic.set hn.flags.(i) true;
  do_freeze hn.buckets.(i)

let rec invoke hn i op =
  if op_is_done op then true
  else begin
    let slot = hn.buckets.(i) in
    match Atomic.get slot with
    | Uninit -> assert false
    | N n -> (
      match Atomic.get n.op with
      | Frozen -> op_is_done op
      | Empty | Pending _ ->
        if Atomic.get hn.flags.(i) then begin
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
            else invoke hn i op
          | Frozen -> op_is_done op
          | Pending _ ->
            help_finish slot;
            invoke hn i op
        end)
  end

(* Logical contents of a slot (pending operation applied). *)
let slot_pairs slot =
  match Atomic.get slot with
  | Uninit -> assert false
  | N n -> (
    match Atomic.get n.op with
    | Empty | Frozen -> n.pairs
    | Pending op -> snd (apply_action n.pairs op))

(* --- table scaffolding (Figure 2) --- *)

let init_bucket hn i =
  (match (Atomic.get hn.buckets.(i), Atomic.get hn.pred) with
  | Uninit, Some s ->
    let pairs =
      if hn.size = s.size * 2 then
        pairs_filter_mask (freeze s (i land s.mask)) ~mask:hn.mask ~target:i
      else Array.append (freeze s i) (freeze s (i + hn.size))
    in
    ignore (Atomic.compare_and_set hn.buckets.(i) Uninit (fresh_node pairs))
    [@nbhash.cas_ok
      "bucket init: racing initializers freeze the same predecessor slots \
       and build identical contents; the first CAS publishes"]
  | (N _ | Uninit), _ -> ());
  ()

let ensure_bucket hn k =
  let i = k land hn.mask in
  (match Atomic.get hn.buckets.(i) with
  | Uninit -> init_bucket hn i
  | N _ -> ());
  i

(* Cooperative sweep hooks (see Sweep and Table_core). *)
let sweep_migrate hn i = init_bucket hn i
let sweep_complete hn () = Atomic.set hn.pred None

let help_migration t hn =
  let m = t.policy.Policy.migration in
  if m.Policy.eager && Atomic.get hn.pred <> None then
    Sweep.help hn.sweep ~chunk:m.Policy.chunk
      ~max_helpers:m.Policy.max_helpers ~migrate:(sweep_migrate hn)
      ~on_complete:(sweep_complete hn)

let resize t grow =
  let hn = Atomic.get t.head in
  let within_bounds =
    if grow then hn.size * 2 <= t.policy.Policy.max_buckets
    else hn.size / 2 >= t.policy.Policy.min_buckets
  in
  if (hn.size > 1 || grow) && within_bounds then begin
    let m = t.policy.Policy.migration in
    if m.Policy.eager && Atomic.get hn.pred <> None then
      Sweep.drain hn.sweep ~chunk:m.Policy.chunk ~migrate:(sweep_migrate hn)
        ~on_complete:(sweep_complete hn);
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
    if Atomic.compare_and_set t.head hn hn' then
      ignore (Atomic.fetch_and_add (if grow then t.grows else t.shrinks) 1)
  end

(* --- announce-and-help APPLY (Figure 4) --- *)

let drive t op =
  let continue = ref (not (op_is_done op)) in
  while !continue do
    let hn = Atomic.get t.head in
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

(* --- policy triggers --- *)

let slot_pair_count slot =
  match Atomic.get slot with
  | Uninit -> 0
  | N n -> Array.length n.pairs

let after_insert h k ~grew =
  Policy.Trigger.note_insert h.local ~resp:grew;
  let hn = Atomic.get h.table.head in
  help_migration h.table hn;
  if
    Policy.Trigger.want_grow h.table.policy h.local ~cur_buckets:hn.size
      ~migrating:(Atomic.get hn.pred <> None)
      ~inserted_bucket_size:(fun () ->
        slot_pair_count hn.buckets.(k land hn.mask))
  then resize h.table true

let after_remove h ~resp =
  Policy.Trigger.note_remove h.local ~resp;
  let hn = Atomic.get h.table.head in
  help_migration h.table hn;
  if
    Policy.Trigger.want_shrink h.table.policy h.local ~cur_buckets:hn.size
      ~migrating:(Atomic.get hn.pred <> None)
      ~sample_bucket_size:(fun i -> slot_pair_count hn.buckets.(i))
  then resize h.table false

(* --- public operations --- *)

let put h k v =
  Hashset_intf.check_key k;
  let prev = apply h (Put v) k in
  after_insert h k ~grew:(Option.is_none prev);
  prev

let remove h k =
  Hashset_intf.check_key k;
  let prev = apply h Del k in
  after_remove h ~resp:(Option.is_some prev);
  prev

let update h k f =
  Hashset_intf.check_key k;
  let prev = apply h (Upd f) k in
  after_insert h k ~grew:(Option.is_none prev)

let get h k =
  Hashset_intf.check_key k;
  let t = h.table in
  let hn = Atomic.get t.head in
  let lookup slot = Option.map snd (pairs_find (slot_pairs slot) k) in
  match Atomic.get hn.buckets.(k land hn.mask) with
  | N _ -> lookup hn.buckets.(k land hn.mask)
  | Uninit -> (
    match Atomic.get hn.pred with
    | Some s -> lookup s.buckets.(k land s.mask)
    | None -> lookup hn.buckets.(k land hn.mask))

let mem h k = Option.is_some (get h k)

let bucket_pairs hn i =
  match Atomic.get hn.buckets.(i) with
  | N _ -> slot_pairs hn.buckets.(i)
  | Uninit -> (
    match Atomic.get hn.pred with
    | Some s ->
      if hn.size = s.size * 2 then
        pairs_filter_mask
          (slot_pairs s.buckets.(i land s.mask))
          ~mask:hn.mask ~target:i
      else
        Array.append (slot_pairs s.buckets.(i)) (slot_pairs s.buckets.(i + hn.size))
    | None -> slot_pairs hn.buckets.(i))

(* How many of [pairs]' keys fall in bucket [target] under [mask]. *)
let count_mask pairs ~mask ~target =
  let c = ref 0 in
  for j = 0 to Array.length pairs - 1 do
    if fst pairs.(j) land mask = target then incr c
  done;
  !c

(* [Array.length (bucket_pairs hn i)], without building the split or
   merged array of a bucket the migration has not initialised yet. A
   slot with a pending operation still copies its pairs once, in
   [slot_pairs]. *)
let bucket_size hn i =
  match Atomic.get hn.buckets.(i) with
  | N _ -> Array.length (slot_pairs hn.buckets.(i))
  | Uninit -> (
    match Atomic.get hn.pred with
    | Some s ->
      if hn.size = s.size * 2 then
        count_mask (slot_pairs s.buckets.(i land s.mask)) ~mask:hn.mask
          ~target:i
      else
        Array.length (slot_pairs s.buckets.(i))
        + Array.length (slot_pairs s.buckets.(i + hn.size))
    | None -> Array.length (slot_pairs hn.buckets.(i)))

let bindings t =
  let hn = Atomic.get t.head in
  List.concat_map (fun i -> Array.to_list (bucket_pairs hn i)) (List.init hn.size Fun.id)

let cardinal t = List.length (bindings t)
let bucket_count t = (Atomic.get t.head).size

let resize_stats t =
  { Hashset_intf.grows = Atomic.get t.grows; shrinks = Atomic.get t.shrinks }

let force_resize h ~grow = resize h.table grow

let bucket_sizes t =
  let hn = Atomic.get t.head in
  Array.init hn.size (fun i -> Array.length (bucket_pairs hn i))

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

(* Announce-array occupancy, as in Adaptive_hashset_opt.pending_ops. *)
let announce_pending t =
  let n = ref 0 in
  Array.iter
    (fun slot ->
      match Atomic.get slot with
      | Some op when not (op_is_done op) -> incr n
      | Some _ | None -> ())
    t.slots;
  !n

(* Structural health snapshot; see Table_core.inspect_with. A slot is
   frozen when its operation field reads [Frozen]. *)
let inspect t =
  let hn = Atomic.get t.head in
  let sizes = Array.init hn.size (bucket_size hn) in
  let initialized = ref 0 in
  let frozen = ref 0 in
  let scan ~count_init b =
    match Atomic.get b with
    | N n -> (
      if count_init then incr initialized;
      match Atomic.get n.op with
      | Frozen -> incr frozen
      | Empty | Pending _ -> ())
    | Uninit -> ()
  in
  Array.iter (scan ~count_init:true) hn.buckets;
  let pred = Atomic.get hn.pred in
  (match pred with
  | Some s -> Array.iter (scan ~count_init:false) s.buckets
  | None -> ());
  let migrating = pred <> None in
  Hashset_intf.make_view ~sizes ~frozen_buckets:!frozen ~migrating
    ~migration_progress:
      (if migrating then float_of_int !initialized /. float_of_int hn.size
       else 1.0)
    ~announce_pending:(announce_pending t)

let fail fmt = Format.kasprintf failwith fmt

let check_invariants t =
  let hn = Atomic.get t.head in
  (match Atomic.get hn.pred with
  | Some s ->
    Array.iteri
      (fun j b ->
        match Atomic.get b with
        | Uninit -> fail "pred bucket %d is uninit" j
        | N _ -> ())
      s.buckets
  | None ->
    Array.iteri
      (fun i b ->
        match Atomic.get b with
        | Uninit -> fail "bucket %d uninit in a table without predecessor" i
        | N _ -> ())
      hn.buckets);
  Array.iteri
    (fun i b ->
      match Atomic.get b with
      | Uninit -> ()
      | N n ->
        Array.iter
          (fun (k, _) ->
            if k land hn.mask <> i then
              fail "key %d misplaced in bucket %d of %d" k i hn.size)
          n.pairs)
    hn.buckets;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (k, _) ->
      if Hashtbl.mem seen k then fail "duplicate key %d" k;
      Hashtbl.add seen k ())
    (bindings t)

(* Ensure the update callback is morally pure in debug runs: nothing
   to enforce at runtime; documented contract. *)
