module Atomic = Nbhash_util.Nb_atomic

module Intset = Nbhash_fset.Intset
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event

let name = "AdaptiveOpt"

(* A bucket slot holds the wait-free FSetNode inline: the Figure 6
   protocol on the slot and its freeze-intent flag, under this table's
   own CAS-retry sites. *)
module Core =
  Table_core.Wf_slots
    (Table_core.Int_keys)
    (struct
      include Nbhash_fset.Wf_slot.Set (Nbhash_fset.Elems.Array_rep)

      let id = "adaptive_opt"
    end)

module S = Core.S
module A = Announce.Make (Core.Op)

type t = {
  core : unit Core.t;
  announce : unit A.t;
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
    announce = A.create ~max_threads ~inert:Nbhash_fset.Fset_intf.Ins;
    fast_threshold;
    help_mask = help_period - 1;
  }

let create ?policy ?max_threads () = create_tuned ?policy ?max_threads ()

let register table =
  let tid = A.register table.announce in
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

let slot_member slot k =
  match Atomic.get slot with
  | S.Uninit -> assert false
  | S.N n -> (
    match Atomic.get n.status with
    | S.Pending op when op.key = k -> op.action = Nbhash_fset.Fset_intf.Ins
    | S.Empty | S.Frozen | S.Pending _ -> Intset.mem n.elems k)

(* The fast path: the lock-free APPLY with a private, never-announced
   operation; [true] once it is applied. See
   [Adaptive_hashset.fast_apply]. *)
let rec fast_apply h op failures =
  failures < h.table.fast_threshold
  && (Core.invoke_bucket (Atomic.get h.core_.Core.head) op
     || fast_apply h op (failures + 1))

let apply h kind k =
  let t = h.table in
  h.ops <- h.ops + 1;
  if h.ops land t.help_mask = 0 then A.help_lowest t.announce h.core_;
  Tm.emit Ev.Fastpath_entry;
  let op = S.make_op kind k ~prio:0 in
  if fast_apply h op 0 then Atomic.get op.S.result
  else begin
    h.slow_entries <- h.slow_entries + 1;
    A.apply t.announce h.core_ ~tid:h.tid kind k
  end

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
  | S.N _ -> slot_member hn.Core.buckets.(k land hn.Core.mask) k
  | S.Uninit -> (
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
let pending_ops t = A.pending_ops t.announce

let inspect t =
  Core.inspect t.core ~announce_pending:(Array.length (pending_ops t))

let check_invariants t = Core.check_invariants t.core
