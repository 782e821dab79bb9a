module Atomic = Nbhash_util.Nb_atomic

module Make (F : Nbhash_fset.Fset_intf.S) : Hashset_intf.S = struct
  module Core = Table_core.Fset (F)
  module Tm = Nbhash_telemetry.Global
  module Ev = Nbhash_telemetry.Event

  type t = unit Core.t
  type handle = { table : t; local : Policy.Trigger.local }

  let name = "LF" ^ String.capitalize_ascii F.id
  let site_apply = Nbhash_telemetry.Site.register ("lf_hashset(" ^ F.id ^ ")/apply")
  let seed = Atomic.make 0x5eed

  let create ?(policy = Policy.default) ?max_threads () =
    ignore max_threads;
    Core.create policy

  let register table =
    {
      table;
      local =
        Policy.Trigger.make_local table.Core.count
          ~seed:(Atomic.fetch_and_add seed 1);
    }

  let unregister h = Policy.Trigger.flush h.local

  (* APPLY (lines 29-37): retry against the current head until the
     operation lands in a mutable bucket. Each retry implies a resize
     completed in the interim. *)
  let rec apply t op k =
    let hn = Atomic.get t.Core.head in
    let b = Core.bucket_for hn k in
    if F.invoke b op then F.get_response op
    else begin
      (* The bucket froze under us: a resize is being absorbed. *)
      Tm.cas_retry site_apply;
      apply t op k
    end

  let insert h k =
    Hashset_intf.check_key k;
    let resp = apply h.table (F.make_op Nbhash_fset.Fset_intf.Ins k) k in
    Core.after_insert h.table h.local ~key:k ~resp;
    resp

  let remove h k =
    Hashset_intf.check_key k;
    let resp = apply h.table (F.make_op Nbhash_fset.Fset_intf.Rem k) k in
    Core.after_remove h.table h.local ~resp;
    resp

  let contains h k =
    Hashset_intf.check_key k;
    Core.contains h.table k

  let bucket_count = Core.bucket_count
  let resize_stats = Core.resize_stats
  let bucket_sizes = Core.bucket_sizes
  let force_resize h ~grow = Core.resize h.table grow
  let cardinal = Core.cardinal
  let elements = Core.elements
  let check_invariants = Core.check_invariants
  let inspect t = Core.inspect t ~announce_pending:0
  let pending_ops _ = [||]
end
