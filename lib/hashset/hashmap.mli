(** A lock-free dynamic-sized hash {e map}: the extension sketched in
    the paper's conclusion ("extending the set to a map: ... the
    copy-on-write technique is likely to prove valuable, since it
    avoids the need to atomically modify distinct key and value
    fields").

    Buckets are copy-on-write arrays of (key, value) pairs with a
    freeze bit, exactly the LFArrayOpt layout; a put replaces the
    whole immutable pair array, so key and value always change
    together and no field-level atomicity is needed. Resizing in both
    directions works as in the set. Keys are non-negative ints below
    [2^61]; values are arbitrary. *)

type 'v t
type 'v handle

val create : ?policy:Policy.t -> unit -> 'v t
val register : 'v t -> 'v handle

val unregister : 'v handle -> unit
(** Flush pending approximate-count deltas; the handle must not be
    used afterwards. *)

val put : 'v handle -> int -> 'v -> 'v option
(** [put h k v] binds [k] to [v]; returns the previous binding. *)

val get : 'v handle -> int -> 'v option

val remove : 'v handle -> int -> 'v option
(** Returns the removed binding, if any. *)

val mem : 'v handle -> int -> bool

val update : 'v handle -> int -> ('v option -> 'v) -> unit
(** [update h k f] atomically binds [k] to [f] of its current binding
    (retrying on contention; [f] may run more than once and must be
    pure). *)

val cardinal : 'v t -> int
(** Exact only in quiescent states. *)

val bucket_count : 'v t -> int
val resize_stats : 'v t -> Hashset_intf.resize_stats
val force_resize : 'v handle -> grow:bool -> unit

val bucket_sizes : 'v t -> int array
(** Per-bucket binding counts. Exact only in quiescent states. *)

val inspect : 'v t -> Hashset_intf.table_view
(** Structural health snapshot; see {!Hashset_intf.S.inspect}. *)

val pending_ops : 'v t -> (int * int) array
(** Always [[||]]: the lock-free map announces no operations; see
    {!Hashset_intf.S.pending_ops}. *)

val bindings : 'v t -> (int * 'v) list
(** Exact only in quiescent states. *)

val iter : (int -> 'v -> unit) -> 'v t -> unit
(** Exact only in quiescent states. *)

val fold : (int -> 'v -> 'a -> 'a) -> 'v t -> 'a -> 'a
(** Exact only in quiescent states. *)

val check_invariants : 'v t -> unit
