module Atomic = Nbhash_util.Nb_atomic

module Make (E : Elems.S) : Fset_intf.WF = struct
  module S = Wf_slot.Make (struct
    include Wf_slot.Set (E)

    let id = "wf_fset(" ^ E.id ^ ")"
  end)

  type op = unit S.op
  type t = { node : unit S.node Atomic.t; flag : bool Atomic.t }

  let id = "wf-" ^ E.id
  let infinity_prio = S.infinity_prio

  let create elems =
    { node = Atomic.make (S.fresh (E.of_array elems)); flag = Atomic.make false }

  let make_op = S.make_op
  let op_kind op = op.S.action
  let op_key op = op.S.key
  let op_prio op = Atomic.get op.S.prio
  let op_is_done = S.op_is_done
  let get_response op = Atomic.get op.S.result
  let invoke t op = S.invoke t.node t.flag op
  let freeze t = E.to_array (S.freeze t.flag t.node)

  let has_member t k =
    match Atomic.get t.node with
    | S.Uninit -> assert false
    | S.N n -> (
      match Atomic.get n.status with
      | S.Pending op when op.key = k -> op.action = Fset_intf.Ins
      | S.Empty | S.Frozen | S.Pending _ -> E.mem n.elems k)

  let elements t = E.to_array (S.contents (Atomic.get t.node))
  let size t = S.size (Atomic.get t.node)
  let is_frozen t = S.is_frozen (Atomic.get t.node)
end
