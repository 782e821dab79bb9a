(* A deliberately broken ordered list: the cell layout and search of
   [Ordered_list] (a cell is its own link), except that [remove] has no
   deletion mark and unlinks the cell with one CAS on its predecessor.
   Without the mark nothing stops an insert from linking a new cell
   after the victim between the remover's read of the victim's
   successor and its unlinking CAS; the CAS then cuts the new cell out
   with the victim, and an insert that returned true is lost.

   The model-check suite demands that the explorer finds this with the
   insert-vs-predecessor-removal scenario, which the shipped list
   passes. Atomics go through the shim so the checker can schedule
   them. *)

module Atomic = Nbhash_util.Nb_atomic

type node = Nil | Node of { key : int; next : node Atomic.t }

let make_node key = Node { key; next = Atomic.make Nil }
let make_head () = make_node min_int
let next_of = function Node c -> c.next | Nil -> assert false

(* [(prev, curr)]: the last cell below [key] and the value read from
   its next. *)
let rec find prev key =
  match Atomic.get (next_of prev) with
  | Node c as curr when c.key < key -> find curr key
  | curr -> (prev, curr)

let rec insert ~start key =
  let prev, curr = find start key in
  match curr with
  | Node c when c.key = key -> false
  | Nil | Node _ ->
    let n = Node { key; next = Atomic.make curr } in
    Atomic.compare_and_set (next_of prev) curr n || insert ~start key

let rec remove ~start key =
  let prev, curr = find start key in
  match curr with
  | Node c when c.key = key ->
    (* BUG: no mark. [Ordered_list.remove] first CASes [c.next] to
       [Mark succ], which fails any insert racing to link after [c]. *)
    let succ = Atomic.get c.next in
    Atomic.compare_and_set (next_of prev) curr succ || remove ~start key
  | Nil | Node _ -> false

let rec mem_from key = function
  | Node c ->
    if c.key < key then mem_from key (Atomic.get c.next) else c.key = key
  | Nil -> false

let mem ~start key = mem_from key (Atomic.get (next_of start))

let check_sorted ~start =
  let rec go last = function
    | Node c ->
      if c.key <= last then failwith "broken ordered list out of order";
      go c.key (Atomic.get c.next)
    | Nil -> ()
  in
  go min_int (Atomic.get (next_of start))
