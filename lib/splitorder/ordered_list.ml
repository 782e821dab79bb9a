module Atomic = Nbhash_util.Nb_atomic
module Tm = Nbhash_telemetry.Global

(* Retry sites: both the split-ordered table and Michael's hash set
   run their CAS loops in this file, so these ids cover both. *)
let site_unlink = Nbhash_telemetry.Site.register "ordered_list/unlink"
let site_insert = Nbhash_telemetry.Site.register "ordered_list/insert"
let site_remove = Nbhash_telemetry.Site.register "ordered_list/remove"

(* A cell is its own link. The [next] atomic of a live cell holds its
   successor itself, a [Node] or [Nil]; the [next] of a logically
   deleted cell holds [Mark succ]. CAS compares physically, so the
   successor cell is the witness of the link to it, and a mark, being
   a fresh block, never equals a cell. A marked cell's [next] is never
   written again. One hop therefore costs two dependent loads (the
   cell's [next] atomic, then the successor it holds), and a cell is
   five words. *)
type node = Nil | Node of { key : int; next : node Atomic.t } | Mark of node

let make_node key = Node { key; next = Atomic.make Nil }

let node_key = function
  | Node c -> c.key
  | Nil | Mark _ -> invalid_arg "Ordered_list.node_key: not a cell"

let make_head () = make_node min_int

(* The [next] atomic of a cell: every start node, [prev] and [curr]
   handled below is one. *)
let next_of = function Node c -> c.next | Nil | Mark _ -> assert false

(* The successor a link points at, marked or not. *)
let unmark = function Mark succ -> succ | (Nil | Node _) as succ -> succ
let is_marked = function Mark _ -> true | Nil | Node _ -> false

(* Search for [key] from the cell [start], unlinking every marked cell
   on the way. Returns [(prev, curr)]: [prev] is the last cell with
   key < [key], and [curr] the unmarked value read from [prev]'s next,
   the first cell with key >= [key] or [Nil]. [curr] is also the CAS
   witness for an insertion after [prev]. Restarts from [start] when
   an unlinking CAS is lost. *)
let rec find start key =
  match Atomic.get (next_of start) with
  | Mark _ ->
    (* Start nodes (head and dummy sentinels) are never deleted. *)
    assert false
  | (Nil | Node _) as first -> scan start key start first

and scan start key prev curr =
  match curr with
  | Nil -> (prev, curr)
  | Mark _ -> assert false
  | Node c -> (
    match Atomic.get c.next with
    | Mark succ ->
      if Atomic.compare_and_set (next_of prev) curr succ then
        scan start key prev succ
      else begin
        Tm.cas_retry site_unlink;
        find start key
      end
    | (Nil | Node _) as succ ->
      if c.key >= key then (prev, curr) else scan start key curr succ)

(* Link the detached cell [n] carrying [key], or find the cell already
   holding [key]; returns whichever cell is in the list. *)
let rec insert_node start key n =
  let prev, curr = find start key in
  match curr with
  | Node c when c.key = key -> curr
  | Nil | Node _ ->
    Atomic.set (next_of n) curr;
    if Atomic.compare_and_set (next_of prev) curr n then n
    else begin
      Tm.cas_retry site_insert;
      insert_node start key n
    end
  | Mark _ -> assert false

let insert ~start key =
  assert (node_key start < key);
  let n = make_node key in
  insert_node start key n == n

let insert_or_find ~start key =
  assert (node_key start < key);
  insert_node start key (make_node key)

(* The mark CAS is the linearization point of a successful remove. *)
let rec remove ~start key =
  let _, curr = find start key in
  match curr with
  | Node c when c.key = key -> (
    match Atomic.get c.next with
    | Mark _ -> false
    | (Nil | Node _) as succ ->
      if Atomic.compare_and_set c.next succ (Mark succ) then begin
        (* Physical unlinking is best-effort; find cleans up. *)
        ignore (find start key);
        true
      end
      else begin
        Tm.cas_retry site_remove;
        remove ~start key
      end)
  | Nil | Node _ -> false
  | Mark _ -> assert false

(* Pure traversal: skip past smaller keys following raw successor
   pointers; a key is present iff its cell is reached and unmarked.
   Top-level with its state as arguments, so a lookup allocates
   nothing. *)
let rec mem_from key = function
  | Node c ->
    if c.key < key then mem_from key (unmark (Atomic.get c.next))
    else c.key = key && not (is_marked (Atomic.get c.next))
  | Nil | Mark _ -> false

let mem ~start key = mem_from key (unmark (Atomic.get (next_of start)))

let keys_from ~start ?upto () =
  let below k = match upto with None -> true | Some u -> k < u in
  let rec go acc = function
    | Node c when below c.key ->
      let link = Atomic.get c.next in
      go (if is_marked link then acc else c.key :: acc) (unmark link)
    | Node _ | Nil | Mark _ -> List.rev acc
  in
  go [] (unmark (Atomic.get (next_of start)))

let check_sorted ~start =
  let rec go last = function
    | Node c ->
      if c.key <= last then
        Format.kasprintf failwith "ordered list out of order: %d after %d"
          c.key last;
      go c.key (unmark (Atomic.get c.next))
    | Nil | Mark _ -> ()
  in
  go (node_key start) (unmark (Atomic.get (next_of start)))
