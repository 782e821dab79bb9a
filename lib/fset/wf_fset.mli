(** The cooperative wait-free FSet of Figure 6, as a functor over the
    immutable element representation: the {!Wf_slot} protocol on one
    node atomic and one freeze-intent flag.

    Contending threads synchronize on the status word of the current
    FSetNode: an operation is first installed by CAS (its linearization
    point), then any thread can complete it. Freezing first raises the
    per-set flag so in-flight invokers stand down, then CASes the
    status to a permanent [Frozen] marker.

    The implementation is lock-free on its own; wait-freedom of table
    operations comes from the announce-and-help protocol in
    {!Nbhash.Announce} (paper section 5). *)

module Make (E : Elems.S) : Fset_intf.WF
