module Atomic = Nbhash_util.Nb_atomic

module Intset = Nbhash_fset.Intset
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event

let site_freeze = Nbhash_telemetry.Site.register "adaptive_opt/freeze"
let site_invoke = Nbhash_telemetry.Site.register "adaptive_opt/invoke"

let infinity_prio = max_int

type wop = {
  kind : Nbhash_fset.Fset_intf.kind;
  key : int;
  resp : bool Atomic.t;
  prio : int Atomic.t;
}

type opslot = Empty | Frozen | Pending of wop

(* A bucket slot holds the wait-free FSetNode inline. *)
type wslot = Uninit | N of { elems : int array; op : opslot Atomic.t }

let name = "AdaptiveOpt"

let make_op kind key ~prio =
  { kind; key; resp = Atomic.make false; prio = Atomic.make prio }

let op_is_done op = Atomic.get op.prio = infinity_prio
let fresh_node elems = N { elems; op = Atomic.make Empty }

(* --- The cooperative wait-free FSet protocol, inlined on slots. --- *)

(* The element array after [op], given whether its key is [present].
   All helpers compute the same successor from the same (node, op)
   pair. *)
let successor elems op ~present =
  match op.kind with
  | Nbhash_fset.Fset_intf.Ins -> if present then elems else Intset.add elems op.key
  | Nbhash_fset.Fset_intf.Rem -> if present then Intset.remove elems op.key else elems

let help_finish slot =
  match Atomic.get slot with
  | Uninit -> ()
  | N n as cur -> (
    match Atomic.get n.op with
    | Empty | Frozen -> ()
    | Pending op ->
      let present = Intset.mem n.elems op.key in
      Atomic.set op.resp
        (match op.kind with
        | Nbhash_fset.Fset_intf.Ins -> not present
        | Nbhash_fset.Fset_intf.Rem -> present);
      Atomic.set op.prio infinity_prio;
      ignore
        (Atomic.compare_and_set slot cur
           (fresh_node (successor n.elems op ~present)))
      [@nbhash.cas_ok
      "helping: all helpers derive the same successor node from the same \
       frozen (node, op) pair; exactly one CAS installs it"])

let rec do_freeze slot =
  match Atomic.get slot with
  | Uninit -> assert false
  | N n -> (
    match Atomic.get n.op with
    | Frozen -> n.elems
    | Empty ->
      if Atomic.compare_and_set n.op Empty Frozen then begin
        Tm.emit Ev.Freeze;
        n.elems
      end
      else begin
        Tm.cas_retry site_freeze;
        do_freeze slot
      end
    | Pending _ ->
      help_finish slot;
      do_freeze slot)

(* The per-bucket freeze-intent flags ride beside the slots: a freezer
   raises its bucket's flag first, and [invoke] installs no new
   [Pending] operation once it is up, so arriving operations cannot
   starve the freeze. *)
module Bucket = struct
  include Table_core.Int_keys

  type 'v slot = wslot
  type side = bool Atomic.t array

  let uninit = Uninit
  let make_side size = Array.init size (fun _ -> Atomic.make false)
  let build = fresh_node

  let freeze flags slots i =
    Atomic.set flags.(i) true;
    do_freeze slots.(i)

  let size = function Uninit -> assert false | N n -> Array.length n.elems

  (* Logical contents, pending operation included. *)
  let contents = function
    | Uninit -> assert false
    | N n -> (
      match Atomic.get n.op with
      | Empty | Frozen -> n.elems
      | Pending op ->
        successor n.elems op ~present:(Intset.mem n.elems op.key))

  let is_frozen = function
    | Uninit -> assert false
    | N n -> (
      match Atomic.get n.op with Frozen -> true | Empty | Pending _ -> false)
end

module Core = Table_core.Make (Bucket)

type t = {
  core : unit Core.t;
  slots : wop Atomic.t array;
  counter : int Atomic.t;
  next_tid : int Atomic.t;
  fast_threshold : int;
  help_mask : int;
}

type handle = {
  table : t;
  core_ : unit Core.t;  (* [table.core], one load nearer the op paths *)
  tid : int;
  local : Policy.Trigger.local;
  mutable ops : int;
  mutable slow_entries : int;
}

let create_tuned ?(policy = Policy.default) ?(max_threads = 128)
    ?(fast_threshold = 256) ?(help_period = 64) () =
  if not (Nbhash_util.Bits.is_pow2 help_period) then
    invalid_arg "help_period must be a power of two";
  if fast_threshold < 1 then invalid_arg "fast_threshold < 1";
  {
    core = Core.create policy;
    slots =
      Array.init max_threads (fun _ ->
          Atomic.make (make_op Nbhash_fset.Fset_intf.Ins 0 ~prio:infinity_prio));
    counter = Atomic.make 0;
    next_tid = Atomic.make 0;
    fast_threshold;
    help_mask = help_period - 1;
  }

let create ?policy ?max_threads () = create_tuned ?policy ?max_threads ()

let register table =
  let tid = Atomic.fetch_and_add table.next_tid 1 in
  if tid >= Array.length table.slots then
    failwith "register: max_threads handles already registered";
  {
    table;
    core_ = table.core;
    tid;
    local = Policy.Trigger.make_local table.core.Core.count ~seed:(0xad0 + tid);
    ops = 0;
    slow_entries = 0;
  }

let unregister h = Policy.Trigger.flush h.local
let slow_path_entries h = h.slow_entries

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

let slot_member slot k =
  match Atomic.get slot with
  | Uninit -> assert false
  | N n -> (
    match Atomic.get n.op with
    | Pending op when op.key = k -> op.kind = Nbhash_fset.Fset_intf.Ins
    | Empty | Frozen | Pending _ -> Intset.mem n.elems k)

let ensure_bucket hn k =
  let i = k land hn.Core.mask in
  (match Atomic.get hn.Core.buckets.(i) with
  | Uninit -> Core.init_bucket hn i
  | N _ -> ());
  i

(* --- Announce-and-help (Figure 4) and the fast path. --- *)

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
    let op = Atomic.get t.slots.(tid) in
    if Atomic.get op.prio <= prio then begin
      if not (op_is_done op) then Tm.emit_arg Ev.Help_op tid;
      drive t op
    end
  done

(* Announce-array snapshot for the liveness watchdog; see
   Wf_common.announced. *)
let pending_ops t =
  let out = ref [] in
  for tid = Array.length t.slots - 1 downto 0 do
    let op = Atomic.get t.slots.(tid) in
    let p = Atomic.get op.prio in
    if p <> infinity_prio && not (op_is_done op) then out := (tid, p) :: !out
  done;
  Array.of_list !out

let help_lowest t =
  let best = ref None in
  Array.iter
    (fun slot ->
      let op = Atomic.get slot in
      let p = Atomic.get op.prio in
      if p <> infinity_prio then
        match !best with
        | Some (bp, _) when bp <= p -> ()
        | Some _ | None -> best := Some (p, op))
    t.slots;
  match !best with
  | None -> ()
  | Some (_, op) ->
    Tm.emit Ev.Help_op;
    drive t op

let slow_apply h kind k =
  let t = h.table in
  Tm.emit_arg Ev.Slowpath_entry k;
  let start_ns = Tm.span_begin Ev.Slowpath_span in
  let prio = Atomic.fetch_and_add t.counter 1 in
  let myop = make_op kind k ~prio in
  Atomic.set t.slots.(h.tid) myop;
  help_up_to t ~prio;
  let resp = Atomic.get myop.resp in
  Tm.record_span Ev.Slowpath_span ~start_ns;
  resp

let fast_apply h kind k =
  let op = make_op kind k ~prio:0 in
  let rec attempt failures =
    if failures >= h.table.fast_threshold then None
    else begin
      let hn = Atomic.get h.core_.Core.head in
      let i = ensure_bucket hn k in
      if invoke hn i op then Some (Atomic.get op.resp)
      else attempt (failures + 1)
    end
  in
  attempt 0

let apply h kind k =
  let t = h.table in
  h.ops <- h.ops + 1;
  if h.ops land t.help_mask = 0 then help_lowest t;
  Tm.emit Ev.Fastpath_entry;
  match fast_apply h kind k with
  | Some resp -> resp
  | None ->
    h.slow_entries <- h.slow_entries + 1;
    slow_apply h kind k

(* --- Public operations. --- *)

let insert h k =
  Hashset_intf.check_key k;
  let resp = apply h Nbhash_fset.Fset_intf.Ins k in
  Core.after_insert h.core_ h.local ~key:k ~resp;
  resp

let remove h k =
  Hashset_intf.check_key k;
  let resp = apply h Nbhash_fset.Fset_intf.Rem k in
  Core.after_remove h.core_ h.local ~resp;
  resp

let contains h k =
  Hashset_intf.check_key k;
  let hn = Atomic.get h.core_.Core.head in
  match Atomic.get hn.Core.buckets.(k land hn.Core.mask) with
  | N _ -> slot_member hn.Core.buckets.(k land hn.Core.mask) k
  | Uninit -> (
    Tm.emit_arg Ev.Contains_pred k;
    match Atomic.get hn.Core.pred with
    | Some s -> slot_member s.Core.buckets.(k land s.Core.mask) k
    | None -> slot_member hn.Core.buckets.(k land hn.Core.mask) k)

let bucket_count t = Core.bucket_count t.core
let resize_stats t = Core.resize_stats t.core
let force_resize h ~grow = Core.resize h.core_ grow
let elements t = Core.elements t.core
let bucket_sizes t = Core.bucket_sizes t.core
let cardinal t = Core.cardinal t.core

let inspect t =
  Core.inspect t.core ~announce_pending:(Array.length (pending_ops t))

let check_invariants t = Core.check_invariants t.core
