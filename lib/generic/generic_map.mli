(** The lock-free dynamic-sized hash map over arbitrary key types:
    {!Generic_set}'s layout with (key, value) pair buckets, i.e. the
    paper's future-work map extension made generic. Collision-safe;
    [K.hash] must be pure and stable. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'v t
  type 'v handle

  val create : ?policy:Nbhash.Policy.t -> unit -> 'v t
  val register : 'v t -> 'v handle

  val unregister : 'v handle -> unit
  (** Flush pending approximate-count deltas; the handle must not be
      used afterwards. *)

  val put : 'v handle -> K.t -> 'v -> 'v option
  (** Bind the key; returns the previous binding. *)

  val get : 'v handle -> K.t -> 'v option
  val mem : 'v handle -> K.t -> bool

  val remove : 'v handle -> K.t -> 'v option
  (** Unbind the key; returns the removed binding. *)

  val update : 'v handle -> K.t -> ('v option -> 'v) -> unit
  (** Atomically bind the key to [f] of its current binding; [f] must
      be pure. *)

  val cardinal : 'v t -> int
  val bindings : 'v t -> (K.t * 'v) list
  val bucket_count : 'v t -> int
  val resize_stats : 'v t -> Nbhash.Hashset_intf.resize_stats
  val force_resize : 'v handle -> grow:bool -> unit
  val check_invariants : 'v t -> unit
end
