(** The cooperative wait-free FSet protocol of Figure 6, written once
    over the payload it synchronizes.

    A node is an immutable element container plus a status word.
    Contending threads synchronize on the status: an operation is first
    installed into it by CAS (its linearization point), then any thread
    can complete it ([help_finish]) by computing the response and the
    successor container from the same immutable (node, operation) pair,
    publishing the response, marking the operation done (priority
    becomes infinity), and swinging the node atomic. Freezing first
    raises the node's freeze-intent flag so in-flight invokers stand
    down, then CASes the status to a permanent [Frozen]; a frozen node
    can never be replaced.

    Every function works on one [node Atomic.t] plus one [bool
    Atomic.t] flag, so the same code serves a standalone FSet
    ({!Wf_fset}: a two-field record) and the inline bucket slots of the
    flattened wait-free tables (the slot and flag arrays of an HNode).
    The protocol is lock-free on its own; wait-freedom comes from the
    announce-and-help protocol of the tables (paper section 5). *)

module Atomic = Nbhash_util.Nb_atomic

(** What one node holds and how an operation changes it. ['v] is the
    map's value type, unused by sets. *)
module type PAYLOAD = sig
  val id : string
  (** Names the CAS-retry sites [id ^ "/freeze"] and [id ^ "/invoke"]. *)

  type 'v elems
  (** The immutable element container of a node. *)

  type 'v action
  type 'v result

  val no_result : 'v result
  (** The response of an operation not applied yet. *)

  val length : 'v elems -> int

  val find : 'v elems -> int -> int
  (** [find elems key] is where [key] sits in [elems], or -1 when it is
      absent. *)

  val result : 'v elems -> int -> 'v action -> 'v result
  (** [result elems at action]: the response of [action] on the key
      that [find] placed at [at]. *)

  val successor : 'v elems -> int -> int -> 'v action -> 'v elems
  (** [successor elems at key action]: [elems] after [action] on [key],
      which [find] placed at [at]. Pure: every helper computes the same
      container from the same arguments. *)
end

(** The set payload over any element representation: insert and
    remove, with a [bool] response. Presence is all a set needs of
    [find]. *)
module Set (E : Elems.S) = struct
  type 'v elems = E.t
  type 'v action = Fset_intf.kind
  type 'v result = bool

  let no_result = false
  let length = E.length
  let find elems k = if E.mem elems k then 0 else -1

  let result _ at = function
    | Fset_intf.Ins -> at < 0
    | Fset_intf.Rem -> at >= 0

  let successor elems at k = function
    | Fset_intf.Ins -> if at >= 0 then elems else E.add elems k
    | Fset_intf.Rem -> if at >= 0 then E.remove elems k else elems
end

module Make (P : PAYLOAD) = struct
  module Tm = Nbhash_telemetry.Global
  module Ev = Nbhash_telemetry.Event

  let site_freeze = Nbhash_telemetry.Site.register (P.id ^ "/freeze")
  let site_invoke = Nbhash_telemetry.Site.register (P.id ^ "/invoke")
  let infinity_prio = max_int

  type 'v op = {
    action : 'v P.action;
    key : int;
    result : 'v P.result Atomic.t;
    prio : int Atomic.t;  (* infinity once applied: the abstract [done] *)
  }

  type 'v status = Empty | Frozen | Pending of 'v op

  (* [Uninit] is the nil bucket of a table's HNode; a standalone FSet
     never holds it. *)
  type 'v node = Uninit | N of { elems : 'v P.elems; status : 'v status Atomic.t }

  let make_op action key ~prio =
    { action; key; result = Atomic.make P.no_result; prio = Atomic.make prio }

  let op_is_done op = Atomic.get op.prio = infinity_prio
  let fresh elems = N { elems; status = Atomic.make Empty }

  (* Complete the pending operation of the current node, if any. All
     helpers compute the same response and successor from the same
     immutable (node, op) pair, so the racy writes below are
     idempotent; the node CAS succeeds for exactly one helper. *)
  let help_finish slot =
    match Atomic.get slot with
    | Uninit -> ()
    | N n as cur -> (
      match Atomic.get n.status with
      | Empty | Frozen -> ()
      | Pending op ->
        let at = P.find n.elems op.key in
        Atomic.set op.result (P.result n.elems at op.action);
        Atomic.set op.prio infinity_prio;
        ignore
          (Atomic.compare_and_set slot cur
             (fresh (P.successor n.elems at op.key op.action)))
        [@nbhash.cas_ok
          "helping: all helpers derive the same successor node from the \
           same immutable (node, op) pair; exactly one CAS installs it"])

  (* Once a status is CASed from Empty to Frozen its node can never be
     replaced (replacement requires a completed Pending), so the
     contents are permanently immutable from that point. Returns
     them. *)
  let rec do_freeze slot =
    match Atomic.get slot with
    | Uninit -> assert false
    | N n -> (
      match Atomic.get n.status with
      | Frozen -> n.elems
      | Empty ->
        if Atomic.compare_and_set n.status Empty Frozen then begin
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

  (* FREEZE: raise the intent flag first, so [invoke] installs no new
     operation and arrivals cannot starve the freeze. *)
  let freeze flag slot =
    Atomic.set flag true;
    do_freeze slot

  (* INVOKE: [true] once [op] is applied (by this thread or a helper),
     [false] when the node froze first and [op] was not applied. The
     done check before the install CAS keeps a helped operation from
     being installed again into its successor node. *)
  let rec invoke slot flag op =
    if op_is_done op then true
    else
      match Atomic.get slot with
      | Uninit -> assert false
      | N n -> (
        match Atomic.get n.status with
        | Frozen -> op_is_done op
        | (Empty | Pending _) when Atomic.get flag ->
          ignore (do_freeze slot);
          op_is_done op
        | Empty ->
          if op_is_done op then true
          else if Atomic.compare_and_set n.status Empty (Pending op) then begin
            help_finish slot;
            true
          end
          else begin
            Tm.cas_retry site_invoke;
            invoke slot flag op
          end
        | Pending _ ->
          help_finish slot;
          invoke slot flag op)

  (* The logical contents of an initialized node: any installed (hence
     linearized) pending operation applied. *)
  let contents = function
    | Uninit -> assert false
    | N n -> (
      match Atomic.get n.status with
      | Empty | Frozen -> n.elems
      | Pending op ->
        P.successor n.elems (P.find n.elems op.key) op.key op.action)

  let size = function Uninit -> assert false | N n -> P.length n.elems

  let is_frozen = function
    | Uninit -> assert false
    | N n -> (
      match Atomic.get n.status with Frozen -> true | Empty | Pending _ -> false)
end
