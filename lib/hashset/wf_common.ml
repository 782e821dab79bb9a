(** The wait-free hash set's state over any cooperative wait-free FSet,
    shared by WFArray/WFList (Figure 4) and the adaptive
    Fastpath/Slowpath variant: the FSet-bucket core plus one
    {!Announce} array. *)

module Atomic = Nbhash_util.Nb_atomic

module Make (F : Nbhash_fset.Fset_intf.WF) = struct
  module Core = Table_core.Fset (F)

  module A = Announce.Make (struct
    type 'v ctx = unit Core.t
    type 'v action = Nbhash_fset.Fset_intf.kind
    type 'v result = bool
    type 'v op = F.op

    let infinity_prio = F.infinity_prio
    let make_op = F.make_op
    let op_prio = F.op_prio
    let response = F.get_response

    (* Invoke fails only if the bucket was frozen, which implies the
       head changed; re-resolving the bucket therefore makes progress.
       Stops as soon as the operation is done (possibly completed by
       someone else). *)
    let rec drive core op =
      if not (F.op_is_done op) then begin
        let hn = Atomic.get core.Core.head in
        if not (F.invoke (Core.bucket_for hn (F.op_key op)) op) then
          drive core op
      end
  end)

  type t = { core : unit Core.t; announce : unit A.t }

  type handle = {
    table : t;
    tid : int;
    local : Policy.Trigger.local;
    mutable ops : int;  (* operation count, drives periodic helping *)
    mutable slow_entries : int;  (* adaptive diagnostics *)
  }

  let create_t policy max_threads =
    {
      core = Core.create policy;
      announce = A.create ~max_threads ~inert:Nbhash_fset.Fset_intf.Ins;
    }

  let register table =
    let tid = A.register table.announce in
    {
      table;
      tid;
      local =
        Policy.Trigger.make_local table.core.Core.count ~seed:(0x5eed + tid);
      ops = 0;
      slow_entries = 0;
    }

  (* Only the counter deltas need releasing; see Announce.register. *)
  let unregister h = Policy.Trigger.flush h.local

  let slow_apply h kind k =
    A.apply h.table.announce h.table.core ~tid:h.tid kind k

  (* Policy triggers, identical in shape to the lock-free table's.
     These hooks also run the cooperative migration sweep (DESIGN.md
     System 12): a wait-free update passing through a resizing table
     claims at most one bucket chunk, which does not change the
     helping bound — the chunk size is a constant of the policy. *)
  let after_insert h k ~resp = Core.after_insert h.table.core h.local ~key:k ~resp
  let after_remove h ~resp = Core.after_remove h.table.core h.local ~resp
  let pending_ops t = A.pending_ops t.announce
end
