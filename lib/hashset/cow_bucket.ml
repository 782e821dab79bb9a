(** The copy-on-write bucket slot of LFArrayOpt, the lock-free maps and
    the generic structures: the slot holds the FSetNode directly (an
    immutable entry array plus the mutability bit) instead of an FSet
    object, so a read touches two fewer cache lines. An update CASes in
    a fresh node; FREEZE CASes the [ok] bit off in place.

    Include it in a {!Table_core.BUCKET} next to the entry operations;
    the table's own op paths match on the constructors. *)

module Atomic = Nbhash_util.Nb_atomic
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event

type 'e t = Uninit | Node of { elems : 'e array; ok : bool }
type side = unit

let uninit = Uninit
let make_side _ = ()
let build elems = Node { elems; ok = true }

(* FREEZE: CAS the ok bit off in place. The slot is a predecessor
   bucket and hence never [Uninit]. *)
let rec freeze_slot site slot =
  match Atomic.get slot with
  | Uninit -> assert false
  | Node n as cur ->
    if not n.ok then n.elems
    else if Atomic.compare_and_set slot cur (Node { elems = n.elems; ok = false })
    then begin
      Tm.emit Ev.Freeze;
      n.elems
    end
    else begin
      Tm.cas_retry site;
      freeze_slot site slot
    end

let contents = function Uninit -> assert false | Node n -> n.elems
let size = function Uninit -> assert false | Node n -> Array.length n.elems
let is_frozen = function Uninit -> assert false | Node n -> not n.ok
