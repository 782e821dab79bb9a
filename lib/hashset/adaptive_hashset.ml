module Atomic = Nbhash_util.Nb_atomic

module Make (F : Nbhash_fset.Fset_intf.WF) = struct
  module W = Wf_common.Make (F)
  module Tm = Nbhash_telemetry.Global
  module Ev = Nbhash_telemetry.Event

  type t = { w : W.t; fast_threshold : int; help_mask : int }
  type handle = { wh : W.handle; t : t }

  let name =
    "Adaptive"
    ^
    match String.index_opt F.id '-' with
    | Some i ->
      let rep = String.sub F.id (i + 1) (String.length F.id - i - 1) in
      if rep = "array" then "" else "-" ^ rep
    | None -> "-" ^ F.id

  let create_tuned ?(policy = Policy.default) ?(max_threads = 128)
      ?(fast_threshold = 256) ?(help_period = 64) () =
    if not (Nbhash_util.Bits.is_pow2 help_period) then
      invalid_arg "help_period must be a power of two";
    if fast_threshold < 1 then invalid_arg "fast_threshold < 1";
    {
      w = W.create_t policy max_threads;
      fast_threshold;
      help_mask = help_period - 1;
    }

  let create ?policy ?max_threads () = create_tuned ?policy ?max_threads ()
  let register t = { wh = W.register t.w; t }
  let unregister h = W.unregister h.wh
  let slow_path_entries h = h.wh.W.slow_entries

  (* Fast path: the lock-free APPLY, with a private (never-announced)
     operation; [true] once it is applied. The operation is abandoned
     only when it was never applied — invoke returning false means the
     bucket was frozen and the op not installed — so retrying on the
     slow path with a fresh op cannot double-apply. A loop over
     arguments, so it allocates no closure. *)
  let rec fast_apply t op k failures =
    failures < t.fast_threshold
    &&
    let hn = Atomic.get t.w.W.core.W.Core.head in
    F.invoke (W.Core.bucket_for hn k) op || fast_apply t op k (failures + 1)

  let apply h kind k =
    let t = h.t in
    let wh = h.wh in
    wh.W.ops <- wh.W.ops + 1;
    if wh.W.ops land t.help_mask = 0 then
      W.A.help_lowest t.w.W.announce t.w.W.core;
    Tm.emit Ev.Fastpath_entry;
    let op = F.make_op kind k ~prio:0 in
    if fast_apply t op k 0 then F.get_response op
    else begin
      wh.W.slow_entries <- wh.W.slow_entries + 1;
      W.slow_apply wh kind k
    end

  let insert h k =
    Hashset_intf.check_key k;
    let resp = apply h Nbhash_fset.Fset_intf.Ins k in
    W.after_insert h.wh k ~resp;
    resp

  let remove h k =
    Hashset_intf.check_key k;
    let resp = apply h Nbhash_fset.Fset_intf.Rem k in
    W.after_remove h.wh ~resp;
    resp

  let contains h k =
    Hashset_intf.check_key k;
    W.Core.contains h.t.w.W.core k

  let bucket_count t = W.Core.bucket_count t.w.W.core
  let resize_stats t = W.Core.resize_stats t.w.W.core
  let bucket_sizes t = W.Core.bucket_sizes t.w.W.core
  let force_resize h ~grow = W.Core.resize h.t.w.W.core grow
  let cardinal t = W.Core.cardinal t.w.W.core
  let elements t = W.Core.elements t.w.W.core
  let check_invariants t = W.Core.check_invariants t.w.W.core

  let inspect t =
    W.Core.inspect t.w.W.core
      ~announce_pending:(Array.length (W.pending_ops t.w))

  let pending_ops t = W.pending_ops t.w
end
