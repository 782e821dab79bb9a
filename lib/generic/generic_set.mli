(** The lock-free dynamic-sized hash set over arbitrary key types.

    The paper's algorithms work on integer sets; this functor applies
    the same freeze-and-migrate design (LFArrayOpt layout: flat
    copy-on-write key arrays inlined in the bucket slots) to any
    hashable key, handling collisions correctly — two keys with equal
    hashes coexist, unlike the injective-encoding shortcut of
    {!Nbhash.Keyed}. Buckets are addressed and split/merged by hash
    bits, so [K.hash] must be pure and stable. *)

module Make (K : Hashtbl.HashedType) : sig
  type t
  type handle

  val create : ?policy:Nbhash.Policy.t -> unit -> t
  val register : t -> handle

  val unregister : handle -> unit
  (** Flush pending approximate-count deltas; the handle must not be
      used afterwards. *)

  val add : handle -> K.t -> bool
  (** [true] iff the key was absent. *)

  val remove : handle -> K.t -> bool
  (** [true] iff the key was present. *)

  val mem : handle -> K.t -> bool
  val cardinal : t -> int
  val elements : t -> K.t list
  val bucket_count : t -> int
  val resize_stats : t -> Nbhash.Hashset_intf.resize_stats
  val force_resize : handle -> grow:bool -> unit
  val check_invariants : t -> unit
end
