module Make (F : Nbhash_fset.Fset_intf.WF) : Hashset_intf.S = struct
  module W = Wf_common.Make (F)

  type t = W.t
  type handle = W.handle

  let name =
    "WF"
    ^ String.capitalize_ascii
        (* F.id is "wf-array" / "wf-list"; strip the prefix. *)
        (match String.index_opt F.id '-' with
        | Some i -> String.sub F.id (i + 1) (String.length F.id - i - 1)
        | None -> F.id)

  let create ?(policy = Policy.default) ?(max_threads = 128) () =
    W.create_t policy max_threads

  let register = W.register
  let unregister = W.unregister

  let insert h k =
    Hashset_intf.check_key k;
    let resp = W.slow_apply h Nbhash_fset.Fset_intf.Ins k in
    W.after_insert h k ~resp;
    resp

  let remove h k =
    Hashset_intf.check_key k;
    let resp = W.slow_apply h Nbhash_fset.Fset_intf.Rem k in
    W.after_remove h ~resp;
    resp

  let contains h k =
    Hashset_intf.check_key k;
    W.Core.contains h.W.table.W.core k

  let bucket_count t = W.Core.bucket_count t.W.core
  let resize_stats t = W.Core.resize_stats t.W.core
  let bucket_sizes t = W.Core.bucket_sizes t.W.core
  let force_resize h ~grow = W.Core.resize h.W.table.W.core grow
  let cardinal t = W.Core.cardinal t.W.core
  let elements t = W.Core.elements t.W.core
  let check_invariants t = W.Core.check_invariants t.W.core

  let inspect t =
    W.Core.inspect t.W.core
      ~announce_pending:(Array.length (W.pending_ops t))

  let pending_ops = W.pending_ops
end
