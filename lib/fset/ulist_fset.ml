(* Node states. A node's verdict is decided by a single CAS out of its
   pending state, so helpers can never record conflicting outcomes;
   [Killed] records which remove consumed a data node, letting that
   remove's helpers recognize their own success. *)
module Atomic = Nbhash_util.Nb_atomic

type state =
  | Pending_ins
  | Pending_rem
  | Data  (* a successful insert's node, currently in the set *)
  | Killed of node  (* was Data; consumed by the given remove node *)
  | Done_rem  (* a remove that found and killed its key *)
  | Noop  (* a failed operation: duplicate insert or remove miss *)
  | Marker  (* the freeze sentinel; permanent once enlisted *)

and node = { key : int; state : state Atomic.t; next : node option Atomic.t }

type t = { head : node option Atomic.t }

type op = {
  kind : Fset_intf.kind;
  okey : int;
  mutable enlisted : node option;
}

let id = "ulist"

let make_node key state next =
  { key; state = Atomic.make state; next = Atomic.make next }

let create elems =
  let chain =
    Array.fold_left (fun tail k -> Some (make_node k Data tail)) None elems
  in
  { head = Atomic.make chain }

let make_op kind okey = { kind; okey; enlisted = None }

(* A node may be unlinked once it can no longer influence any verdict.
   A [Killed r] node must stay reachable while [r] is pending: r's
   helpers recognize their success by finding it, and unlinking it
   early could let a slow helper reach the end of the list and record
   a spurious [Noop]. *)
let is_unlinkable = function
  | Done_rem | Noop -> true
  | Killed r -> (
    match Atomic.get r.state with
    | Pending_rem -> false
    | Pending_ins | Data | Killed _ | Done_rem | Noop | Marker -> true)
  | Pending_ins | Pending_rem | Data | Marker -> false

(* First non-garbage node reachable through [slot], unlinking terminal
   nodes along the way (they are permanent no-ops, safe to cut). CAS
   compares physically, so the unlinking CAS expects the very option
   read from [slot]. Win or lose, the walk goes on from [slot] itself,
   so a run of terminal nodes is cut from the list and not from a node
   already cut out of it. The result is the option read from [slot],
   so a traversal allocates nothing. *)
let rec next_live slot =
  match Atomic.get slot with
  | None -> None
  | Some m as cur ->
    if is_unlinkable (Atomic.get m.state) then begin
      ignore
        (Atomic.compare_and_set slot cur (Atomic.get m.next))
      [@nbhash.cas_ok
        "unlinking a terminal node is an optional shortcut: losing the race \
        means another traversal already cut it (or the slot moved on)"];
      next_live slot
    end
    else cur

(* Resolve a pending node against its suffix. Any same-key pending
   node encountered is resolved first, which makes per-key verdicts
   deterministic in enlist order (see the module documentation). *)
let rec resolve n =
  match Atomic.get n.state with
  | Data | Killed _ | Done_rem | Noop | Marker -> ()
  | Pending_ins -> resolve_ins n
  | Pending_rem -> resolve_rem n

and resolve_ins n =
  let rec walk slot =
    match next_live slot with
    | None ->
      ignore (Atomic.compare_and_set n.state Pending_ins Data)
      [@nbhash.cas_ok
        "helping: every helper CASes the same pending state to the same \
        verdict; a lost race means the verdict is already published"]
    | Some m ->
      if m.key <> n.key then walk m.next
      else begin
        match Atomic.get m.state with
        | Pending_ins | Pending_rem ->
          resolve m;
          walk slot
        | Data ->
          (* the key is present: this insert fails *)
          ignore (Atomic.compare_and_set n.state Pending_ins Noop)
          [@nbhash.cas_ok
            "helping: every helper CASes the same pending state to the same \
            verdict; a lost race means the verdict is already published"]
        | Killed _ | Done_rem | Noop -> walk m.next
        | Marker -> walk m.next
      end
  in
  walk n.next

and resolve_rem n =
  let rec walk slot =
    match next_live slot with
    | None ->
      ignore (Atomic.compare_and_set n.state Pending_rem Noop)
      [@nbhash.cas_ok
        "helping: every helper CASes the same pending state to the same \
        verdict; a lost race means the verdict is already published"]
    | Some m ->
      if m.key <> n.key then walk m.next
      else begin
        match Atomic.get m.state with
        | Pending_ins | Pending_rem ->
          resolve m;
          walk slot
        | Data ->
          if Atomic.compare_and_set m.state Data (Killed n) then
            ignore (Atomic.compare_and_set n.state Pending_rem Done_rem)
            [@nbhash.cas_ok
              "helping: every helper CASes the same pending state to the same \
              verdict; a lost race means the verdict is already published"]
          else walk slot (* re-examine m's new state *)
        | Killed r when r == n ->
          (* a helper of this very remove already consumed m *)
          ignore (Atomic.compare_and_set n.state Pending_rem Done_rem)
          [@nbhash.cas_ok
            "helping: every helper CASes the same pending state to the same \
            verdict; a lost race means the verdict is already published"]
        | Killed _ | Done_rem | Noop -> walk m.next
        | Marker -> walk m.next
      end
  in
  walk n.next

let head_frozen h =
  match h with
  | Some hn -> ( match Atomic.get hn.state with Marker -> true | _ -> false)
  | None -> false

let rec enlist t n =
  let h = Atomic.get t.head in
  if head_frozen h then false
  else begin
    Atomic.set n.next h;
    if Atomic.compare_and_set t.head h (Some n) then true else enlist t n
  end

let invoke t op =
  match op.enlisted with
  | Some _ -> true (* already applied; only the owner retries *)
  | None ->
    let state =
      match op.kind with
      | Fset_intf.Ins -> Pending_ins
      | Fset_intf.Rem -> Pending_rem
    in
    let n = make_node op.okey state None in
    if enlist t n then begin
      resolve n;
      op.enlisted <- Some n;
      true
    end
    else false

let get_response op =
  match op.enlisted with
  | None -> false
  | Some n -> (
    match Atomic.get n.state with
    | Data | Killed _ | Done_rem -> true
    | Noop -> false
    | Pending_ins | Pending_rem | Marker -> assert false)

(* Top-level with its state as arguments: a local closure over [k]
   would be allocated on every lookup. *)
let rec member_from k slot =
  match next_live slot with
  | None -> false
  | Some m ->
    if m.key <> k then member_from k m.next
    else begin
      match Atomic.get m.state with
      | Data -> true
      | Pending_ins | Pending_rem ->
        resolve m;
        member_from k slot
      | Killed _ | Done_rem | Noop | Marker -> member_from k m.next
    end

let has_member t k = member_from k t.head

(* Resolve every pending node, then gather the data nodes. Exact in
   quiescent (or frozen) states. *)
let collect t =
  let acc = ref [] in
  let rec walk slot =
    match next_live slot with
    | None -> ()
    | Some m -> (
      match Atomic.get m.state with
      | Pending_ins | Pending_rem ->
        resolve m;
        walk slot
      | Data ->
        acc := m.key :: !acc;
        walk m.next
      | Killed _ | Done_rem | Noop | Marker -> walk m.next)
  in
  walk t.head;
  Array.of_list !acc

let elements = collect
let size t = Array.length (collect t)

let rec freeze t =
  let h = Atomic.get t.head in
  if head_frozen h then collect t
  else begin
    let m = make_node min_int Marker h in
    if Atomic.compare_and_set t.head h (Some m) then collect t else freeze t
  end

let is_frozen t = head_frozen (Atomic.get t.head)
