(** Announce-and-help machinery shared by the wait-free hash set
    (Figure 4) and the adaptive Fastpath/Slowpath variants.

    Threads announce operations tagged with strictly increasing
    priorities (a fetch-and-increment counter — the doorway of
    Lamport's bakery, as the paper notes) in a slot array indexed by
    thread id, and then help every announced operation whose priority
    does not exceed their own. An operation's priority becomes
    infinity when it has been applied, which bounds every helping loop
    (section 5.2: O(T^2) FSet operations per APPLY). *)

module Atomic = Nbhash_util.Nb_atomic

module Make (F : Nbhash_fset.Fset_intf.WF) = struct
  module Core = Table_core.Fset (F)
  module Tm = Nbhash_telemetry.Global
  module Ev = Nbhash_telemetry.Event

  type t = {
    core : unit Core.t;
    slots : F.op Atomic.t array;
    counter : int Atomic.t;
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

  type handle = {
    table : t;
    tid : int;
    local : Policy.Trigger.local;
    mutable ops : int;  (* operation count, drives periodic helping *)
    mutable slow_entries : int;  (* adaptive diagnostics *)
  }

  let inert_op () = F.make_op Nbhash_fset.Fset_intf.Ins 0 ~prio:F.infinity_prio

  let create_t policy max_threads =
    if max_threads < 1 then invalid_arg "max_threads < 1";
    let announce_writes = Array.make max_threads 0 in
    {
      core = Core.create policy;
      slots = Array.init max_threads (fun _ -> Atomic.make (inert_op ()));
      counter = Atomic.make 0;
      next_tid = Atomic.make 0;
      announce_writes;
      announce_src =
        Nbhash_telemetry.Profile.register_source ~name:"wf_announce"
          ~lanes_per_line:8 (fun () -> Array.copy announce_writes);
    }

  let register table =
    let tid = Atomic.fetch_and_add table.next_tid 1 in
    if tid >= Array.length table.slots then
      failwith "register: max_threads handles already registered";
    {
      table;
      tid;
      local =
        Policy.Trigger.make_local table.core.Core.count ~seed:(0x5eed + tid);
      ops = 0;
      slow_entries = 0;
    }

  (* The announce slot stays inert after teardown (its op priority is
     infinity), so only the counter deltas need releasing. The tid is
     not recycled: max_threads bounds lifetime registrations. *)
  let unregister h = Policy.Trigger.flush h.local

  (* Drive one operation to completion against whatever bucket
     currently owns its key. Invoke fails only if the bucket was
     frozen, which implies the head changed; re-resolving the bucket
     therefore makes progress. Stops as soon as the operation is done
     (possibly completed by someone else). *)
  let drive t op =
    let continue = ref (not (F.op_is_done op)) in
    while !continue do
      let hn = Atomic.get t.core.Core.head in
      let b = Core.bucket_for hn (F.op_key op) in
      if F.invoke b op then continue := false
      else continue := not (F.op_is_done op)
    done

  (* The helping scan of Figure 4 (lines 56-64): complete every
     announced operation whose priority is at most [prio]. *)
  let help_up_to t ~prio =
    for tid = 0 to Array.length t.slots - 1 do
      let op = Atomic.get t.slots.(tid) in
      if F.op_prio op <= prio then begin
        if not (F.op_is_done op) then Tm.emit_arg Ev.Help_op tid;
        drive t op
      end
    done

  (* Help the single oldest announced operation, if any: the periodic
     assist that keeps fast-path threads from starving slow-path
     ones. *)
  let help_lowest t =
    let best = ref None in
    Array.iter
      (fun slot ->
        let op = Atomic.get slot in
        let p = F.op_prio op in
        if p <> F.infinity_prio then
          match !best with
          | Some (bp, _) when bp <= p -> ()
          | Some _ | None -> best := Some (p, op))
      t.slots;
    match !best with
    | None -> ()
    | Some (_, op) ->
      Tm.emit Ev.Help_op;
      drive t op

  (* APPLY of Figure 4: announce, help everything at least as old,
     read own response. *)
  let slow_apply h kind k =
    let t = h.table in
    Tm.emit_arg Ev.Slowpath_entry k;
    let start_ns = Tm.span_begin Ev.Slowpath_span in
    let prio = Atomic.fetch_and_add t.counter 1 in
    let myop = F.make_op kind k ~prio in
    Atomic.set t.slots.(h.tid) myop;
    t.announce_writes.(h.tid) <- t.announce_writes.(h.tid) + 1
    [@nbhash.plain_ok
      "single-writer per slot (the owning tid); the false-sharing sampler \
       tolerates torn reads like every profiler lane"];
    help_up_to t ~prio;
    let resp = F.get_response myop in
    Tm.record_span Ev.Slowpath_span ~start_ns;
    resp

  (* Snapshot of the announce array for the liveness watchdog: every
     announced-but-incomplete operation as (tid, priority). Priorities
     are unique per operation (the bakery counter), so the same pair
     persisting across polls means one specific operation is stuck —
     exactly what the helping protocol is supposed to preclude. Racy
     by design; see Watchdog. *)
  let announced t =
    let out = ref [] in
    for tid = Array.length t.slots - 1 downto 0 do
      let op = Atomic.get t.slots.(tid) in
      let p = F.op_prio op in
      if p <> F.infinity_prio && not (F.op_is_done op) then
        out := (tid, p) :: !out
    done;
    Array.of_list !out

  (* Policy triggers, identical in shape to the lock-free table's.
     These hooks also run the cooperative migration sweep (DESIGN.md
     System 12): a wait-free update passing through a resizing table
     claims at most one bucket chunk, which does not change the
     helping bound — the chunk size is a constant of the policy. *)
  let after_insert h k ~resp = Core.after_insert h.table.core h.local ~key:k ~resp
  let after_remove h ~resp = Core.after_remove h.table.core h.local ~resp
end
