(* The liveness watchdog: a sampling observer over announce arrays.

   The wait-free tables' progress argument says every announced
   operation is completed within a bounded number of steps by *some*
   thread (Announce's help_up_to). That claim is normally invisible:
   a helping bug shows up as a hang, far from its cause. The watchdog
   makes it observable — each poll snapshots the pending announced
   operations of its sources (as (tid, token) pairs, where the token
   is the operation's bakery priority, unique per operation), records
   when each pair was first seen, and reports any pair still pending
   after max_age_ns. A table whose helping works can keep an announce
   slot busy arbitrarily long only with ever-changing tokens; the same
   (tid, token) persisting means one specific operation is stuck.

   A watchdog is single-owner state (the Hashtbl of first-seen times
   is unsynchronized): create it and poll it from one domain. The
   sources' [pending] thunks are the only part that reads shared
   memory, and they only read announce slots — the snapshot is racy by
   nature, which is fine: a completed-meanwhile operation just drops
   out at the next poll, and a false "pending" lasts one interval.

   Ages are differences of Nbhash_util.Clock.now_ns readings; that
   clock is monotonic (CLOCK_MONOTONIC), so ages are non-negative and
   a wall-clock step can neither mass-report stalls nor hide one. *)

module Atomic = Nbhash_util.Nb_atomic

type source = {
  name : string;
  pending : unit -> (int * int) array;
      (* announced-but-incomplete ops as (tid, token) *)
}

type stall = { source : string; tid : int; token : int; age_ns : int }

type t = {
  max_age_ns : int;
  sources : unit -> source list;
      (* re-evaluated per poll, so a watchdog can follow a dynamic
         registry (see [global]) as tables come and go *)
  first_seen : (string * int * int, int) Hashtbl.t;
}

let default_max_age_ns = 1_000_000_000

let create ?(max_age_ns = default_max_age_ns) sources =
  if max_age_ns <= 0 then invalid_arg "Watchdog.create: max_age_ns <= 0";
  { max_age_ns; sources = (fun () -> sources); first_seen = Hashtbl.create 64 }

(* --- the process-wide source registry --- *)

(* Tables register their announce arrays here (via Factory attach) so
   a single watchdog — typically the metrics server's, backing the
   /health endpoint — can see every live table without threading a
   list through the program. A CAS-swapped immutable list, same shape
   as Gauge's registry. *)

type registered = { id : int; src : source }

let next_id = Atomic.make 0
let registry : registered list Atomic.t = Atomic.make []

let rec swap f =
  let cur = Atomic.get registry in
  if not (Atomic.compare_and_set registry cur (f cur)) then swap f

let register_source ~name pending =
  let id = Atomic.fetch_and_add next_id 1 in
  swap (fun l -> { id; src = { name; pending } } :: l);
  id

let unregister_source id = swap (List.filter (fun r -> r.id <> id))

let registered_sources () =
  List.rev_map (fun r -> r.src) (Atomic.get registry)

(* A watchdog over the registry: each poll sees the tables registered
   at that instant. Still single-owner — poll it from one domain. *)
let global ?(max_age_ns = default_max_age_ns) () =
  if max_age_ns <= 0 then invalid_arg "Watchdog.global: max_age_ns <= 0";
  { max_age_ns; sources = registered_sources; first_seen = Hashtbl.create 64 }

let poll t =
  let now = Nbhash_util.Clock.now_ns () in
  let live = Hashtbl.create 16 in
  let stalls = ref [] in
  List.iter
    (fun src ->
      Array.iter
        (fun (tid, token) ->
          let key = (src.name, tid, token) in
          Hashtbl.replace live key ();
          let seen =
            match Hashtbl.find_opt t.first_seen key with
            | Some ts -> ts
            | None ->
              Hashtbl.replace t.first_seen key now;
              now
          in
          let age = now - seen in
          if age > t.max_age_ns then
            stalls := { source = src.name; tid; token; age_ns = age } :: !stalls)
        (src.pending ()))
    (t.sources ());
  (* Forget operations that completed since the last poll, so a reused
     announce slot starts a fresh age. *)
  let dead =
    Hashtbl.fold
      (fun key _ acc -> if Hashtbl.mem live key then acc else key :: acc)
      t.first_seen []
  in
  List.iter (Hashtbl.remove t.first_seen) dead;
  List.rev !stalls

(* Trace-lane staleness: lanes whose newest record is older than
   max_age_ns. Complements [poll] — announce arrays expose stuck
   *operations*, stale lanes expose domains that stopped emitting
   entirely (deadlock, livelock outside any announce window). Only
   meaningful while the traced workload is supposed to be active. *)
let stale_lanes ?(max_age_ns = default_max_age_ns) trace =
  let now = Nbhash_util.Clock.now_ns () in
  Array.to_list (Trace.lane_last_ts trace)
  |> List.filter_map (fun (lane, ts) ->
         let age = now - ts in
         if age > max_age_ns then Some (lane, age) else None)

let pp_stall ppf s =
  Format.fprintf ppf "%s: op (tid=%d, prio=%d) pending for %.1f ms" s.source
    s.tid s.token
    (float_of_int s.age_ns /. 1e6)

(* Sampling loop for soak runs: poll every [interval] seconds until
   [stop ()], invoking [on_stall] on each non-empty report (soak dumps
   the merged trace tail there). Returns the total number of stall
   reports observed. *)
let run ?(interval = 0.1) ?(on_stall = fun _ -> ()) ~stop t =
  let total = ref 0 in
  while not (stop ()) do
    (match poll t with
    | [] -> ()
    | stalls ->
      total := !total + List.length stalls;
      on_stall stalls);
    Unix.sleepf interval
  done;
  !total
