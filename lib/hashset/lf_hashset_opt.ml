module Atomic = Nbhash_util.Nb_atomic

module Intset = Nbhash_fset.Intset
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event

let site_freeze = Nbhash_telemetry.Site.register "lf_opt/freeze_slot"
let site_stale = Nbhash_telemetry.Site.register "lf_opt/stale_bucket"
let site_add = Nbhash_telemetry.Site.register "lf_opt/add"
let site_del = Nbhash_telemetry.Site.register "lf_opt/del"

(* A bucket slot is directly the FSetNode: no FSet wrapper object.
   [Uninit] plays the role of the nil bucket pointer. *)
module Bucket = struct
  include Cow_bucket
  include Table_core.Int_keys

  type 'v slot = int Cow_bucket.t

  let freeze () slots i = freeze_slot site_freeze slots.(i)
end

module Core = Table_core.Make (Bucket)

type t = unit Core.t
type handle = { table : t; local : Policy.Trigger.local }

let name = "LFArrayOpt"

let create ?(policy = Policy.default) ?max_threads () =
  ignore max_threads;
  Core.create policy

let seed = Atomic.make 0x0b7

let register table =
  {
    table;
    local =
      Policy.Trigger.make_local table.Core.count
        ~seed:(Atomic.fetch_and_add seed 1);
  }

let unregister h = Policy.Trigger.flush h.local
let pending_ops _ = [||]

(* APPLY with the FSet INVOKE inlined against the slot: a frozen node
   or a lost CAS means a resize intervened, so re-resolve from the
   head. Redundant operations linearize at the node read, without a
   CAS. *)
let rec run_op t kind k =
  let hn = Atomic.get t.Core.head in
  let i = k land hn.Core.mask in
  let slot = hn.Core.buckets.(i) in
  match Atomic.get slot with
  | Uninit ->
    Core.init_bucket hn i;
    run_op t kind k
  | Node n as cur ->
    if not n.ok then begin
      Tm.cas_retry site_stale;
      run_op t kind k
    end
    else begin
      let present = Intset.mem n.elems k in
      match kind with
      | Nbhash_fset.Fset_intf.Ins ->
        if present then false
        else if
          Atomic.compare_and_set slot cur
            (Node { elems = Intset.add n.elems k; ok = true })
        then true
        else begin
          Tm.cas_retry site_add;
          run_op t kind k
        end
      | Nbhash_fset.Fset_intf.Rem ->
        if not present then false
        else if
          Atomic.compare_and_set slot cur
            (Node { elems = Intset.remove n.elems k; ok = true })
        then true
        else begin
          Tm.cas_retry site_del;
          run_op t kind k
        end
    end

let insert h k =
  Hashset_intf.check_key k;
  let resp = run_op h.table Nbhash_fset.Fset_intf.Ins k in
  Core.after_insert h.table h.local ~key:k ~resp;
  resp

let remove h k =
  Hashset_intf.check_key k;
  let resp = run_op h.table Nbhash_fset.Fset_intf.Rem k in
  Core.after_remove h.table h.local ~resp;
  resp

let contains h k =
  Hashset_intf.check_key k;
  let t = h.table in
  let hn = Atomic.get t.Core.head in
  match Atomic.get hn.Core.buckets.(k land hn.Core.mask) with
  | Node n -> Intset.mem n.elems k
  | Uninit ->
    Tm.emit_arg Ev.Contains_pred k;
    let slot =
      match Atomic.get hn.Core.pred with
      | Some s -> s.Core.buckets.(k land s.Core.mask)
      | None -> hn.Core.buckets.(k land hn.Core.mask)
    in
    Intset.mem (Cow_bucket.contents (Atomic.get slot)) k

let bucket_count = Core.bucket_count
let resize_stats = Core.resize_stats
let force_resize h ~grow = Core.resize h.table grow
let elements = Core.elements
let bucket_sizes = Core.bucket_sizes
let cardinal = Core.cardinal
let inspect t = Core.inspect t ~announce_pending:0
let check_invariants = Core.check_invariants
