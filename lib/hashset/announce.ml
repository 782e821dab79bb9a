(** Announce-and-help (Figure 4's APPLY, paper section 5), written once
    for every wait-free table: WFArray, WFList, Adaptive, AdaptiveOpt
    and the wait-free map.

    Threads announce operations tagged with strictly increasing
    priorities (a fetch-and-increment counter — the doorway of
    Lamport's bakery, as the paper notes) in a slot array indexed by
    thread id, and then help every announced operation whose priority
    does not exceed their own. An operation's priority becomes infinity
    when it has been applied, which bounds every helping loop (section
    5.2: O(T^2) FSet operations per APPLY). The table supplies [drive],
    which runs one operation to completion against whatever bucket
    currently owns its key.

    Every scan stops at the registered tids: no slot at or past
    [next_tid] has ever held an operation, and a handle registered
    after a scan reads [next_tid] draws its priorities after the
    scanner's own (DESIGN.md Systems 20 and 21). *)

module Atomic = Nbhash_util.Nb_atomic
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event

(** The operations a table announces, and how it drives one. *)
module type OP = sig
  type 'v ctx
  (** What [drive] runs against: the table's core. *)

  type 'v action
  type 'v result
  type 'v op

  val infinity_prio : int

  val make_op : 'v action -> int -> prio:int -> 'v op
  (** [make_op action key ~prio]; [prio = infinity_prio] makes an inert
      (already done) operation, the placeholder of an idle slot. *)

  val op_prio : 'v op -> int
  val response : 'v op -> 'v result

  val drive : 'v ctx -> 'v op -> unit
  (** Return once the operation is done. *)
end

module Make (O : OP) = struct
  type 'v t = {
    slots : 'v O.op Atomic.t array;
    counter : int Atomic.t;
        (* the bakery doorway, written by every announced operation;
           padded so its writes do not invalidate its neighbours' line *)
    next_tid : int Atomic.t;
    announce_writes : int array;
        (* per-slot announce counts: each slot has one writer (its
           tid), so plain increments are exact; the profiler samples
           these as a packed lane source — 8 announce slots share one
           cache line, the textbook false-sharing candidate *)
    announce_src : Nbhash_telemetry.Profile.source;
        (* keeps the weakly-registered source alive as long as the
           table is reachable *)
  }

  let create ~max_threads ~inert =
    if max_threads < 1 then invalid_arg "max_threads < 1";
    let announce_writes = Array.make max_threads 0 in
    {
      slots =
        Array.init max_threads (fun _ ->
            Atomic.make (O.make_op inert 0 ~prio:O.infinity_prio));
      counter = Atomic.make_contended 0;
      next_tid = Atomic.make 0;
      announce_writes;
      announce_src =
        Nbhash_telemetry.Profile.register_source ~name:"wf_announce"
          ~lanes_per_line:8 (fun () -> Array.copy announce_writes);
    }

  (* A fresh tid: the caller's announce slot. Tids are not recycled, so
     [max_threads] bounds lifetime registrations; a retired handle's
     slot stays inert (its last operation is done). *)
  let register t =
    let tid = Atomic.fetch_and_add t.next_tid 1 in
    if tid >= Array.length t.slots then
      failwith "register: max_threads handles already registered";
    tid

  (* Tids handed out so far: no slot at or past this index has ever
     held an announced operation. *)
  let registered t = min (Atomic.get t.next_tid) (Array.length t.slots)

  (* The helping scan of Figure 4 (lines 56-64): complete every
     announced operation whose priority is at most [prio]. *)
  let help_up_to t ctx ~prio =
    for tid = 0 to registered t - 1 do
      let op = Atomic.get t.slots.(tid) in
      let p = O.op_prio op in
      if p <= prio then begin
        if p <> O.infinity_prio then Tm.emit_arg Ev.Help_op tid;
        O.drive ctx op
      end
    done

  (* The oldest announced operation among tids [tid, n), against the
     best found so far; a loop over arguments, so it allocates
     nothing. *)
  let rec oldest slots n tid best best_prio =
    if tid >= n then best
    else
      let op = Atomic.get slots.(tid) in
      let p = O.op_prio op in
      if p < best_prio then oldest slots n (tid + 1) op p
      else oldest slots n (tid + 1) best best_prio

  (* Help the single oldest announced operation, if any: the periodic
     assist that keeps fast-path threads from starving slow-path
     ones. *)
  let help_lowest t ctx =
    let idle = Atomic.get t.slots.(0) in
    let op = oldest t.slots (registered t) 0 idle O.infinity_prio in
    if O.op_prio op <> O.infinity_prio then begin
      Tm.emit Ev.Help_op;
      O.drive ctx op
    end

  (* APPLY of Figure 4: announce, help everything at least as old, read
     the own response. *)
  let apply t ctx ~tid action k =
    Tm.emit_arg Ev.Slowpath_entry k;
    let start_ns = Tm.span_begin Ev.Slowpath_span in
    let prio = Atomic.fetch_and_add t.counter 1 in
    let op = O.make_op action k ~prio in
    Atomic.set t.slots.(tid) op;
    t.announce_writes.(tid) <- t.announce_writes.(tid) + 1
    [@nbhash.plain_ok
      "single-writer per slot (the owning tid); the false-sharing sampler \
       tolerates torn reads like every profiler lane"];
    help_up_to t ctx ~prio;
    let resp = O.response op in
    Tm.record_span Ev.Slowpath_span ~start_ns;
    resp

  (* Snapshot of the announce array for the liveness watchdog: every
     announced-but-incomplete operation as (tid, priority). Priorities
     are unique per operation (the bakery counter), so the same pair
     persisting across polls means one specific operation is stuck —
     exactly what the helping protocol is supposed to preclude. Racy
     by design; see Watchdog. *)
  let pending_ops t =
    let out = ref [] in
    for tid = registered t - 1 downto 0 do
      let p = O.op_prio (Atomic.get t.slots.(tid)) in
      if p <> O.infinity_prio then out := (tid, p) :: !out
    done;
    Array.of_list !out
end
