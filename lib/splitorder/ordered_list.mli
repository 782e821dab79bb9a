(** A lock-free sorted linked list with logical deletion — Michael's
    streamlining of Harris's algorithm — the substrate under both the
    split-ordered-list baseline and Michael's fixed-size hash table.

    Keys are unique and sorted ascending. A node is deleted in two
    steps: its [next] link is atomically replaced by a mark around the
    same successor (the logical deletion, the linearization point of a
    remove), then any traversal that encounters it unlinks it
    physically. A lookup allocates nothing and costs two dependent
    loads per node. Traversal starts from a caller-supplied start node,
    which lets hash tables begin searches at interior sentinel (dummy)
    nodes rather than the list head. *)

type node

val make_node : int -> node
(** A detached node carrying the given sort key. *)

val node_key : node -> int

val make_head : unit -> node
(** A sentinel that sorts before every key ([min_int]); never passed
    to [remove]. *)

val insert : start:node -> int -> bool
(** [insert ~start key] adds a node with [key]; [false] if present.
    [start]'s key must be smaller than [key]. *)

val insert_or_find : start:node -> int -> node
(** Insert a node with the given key, or return the already-present
    node with that key (used to publish dummy nodes exactly once). *)

val remove : start:node -> int -> bool
(** Logically delete the node with [key]; [false] if absent. *)

val mem : start:node -> int -> bool
(** Pure traversal (no helping, no CAS). *)

val keys_from : start:node -> ?upto:int -> unit -> int list
(** Unmarked keys after [start], strictly below [upto] if given.
    Exact only in quiescent states. *)

val check_sorted : start:node -> unit
(** Raises [Failure] if reachable keys are not strictly increasing. *)
