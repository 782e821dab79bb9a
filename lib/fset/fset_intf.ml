(** Interfaces of freezable set (FSet) objects, after Figure 1 of the
    paper.

    An FSet is an integer set supporting insert/remove (submitted as
    first-class operation objects via {!S.invoke}), membership test,
    and a [freeze] operation that renders it permanently immutable and
    returns its final contents. Buckets of the hash tables are FSets;
    resizing freezes the source buckets before migrating their keys,
    which is what makes migration atomic-free and linearizable. *)

type kind = Ins | Rem

let pp_kind ppf = function
  | Ins -> Format.pp_print_string ppf "ins"
  | Rem -> Format.pp_print_string ppf "rem"

(** Operations common to every FSet implementation. The hash-table
    core ({!Nbhash.Table_core.Make}) is a functor over a bucket layout;
    {!Nbhash.Table_core.Fset} builds that bucket from any FSet with
    this signature. *)
module type CORE = sig
  type t

  val id : string
  (** Short tag used to derive table names ("array", "list", ...). *)

  val create : int array -> t
  (** [create elems] is a fresh, mutable FSet holding [elems]
      (assumed pairwise distinct; ownership of the array is not
      taken). *)

  val has_member : t -> int -> bool
  (** Linearizable membership test (HASMEMBER in the paper). *)

  val freeze : t -> int array
  (** Render the set permanently immutable and return its final
      contents (FREEZE). Idempotent; all callers get the same final
      state. *)

  val size : t -> int
  (** Current number of elements; used by resize heuristics. After a
      freeze this is the final size. *)

  val elements : t -> int array
  (** Snapshot of the current logical contents (including the effect
      of any linearized-but-unfinished pending operation). Exact only
      in quiescent states; used by tests and diagnostics. *)

  val is_frozen : t -> bool
end

(** A lock-free FSet as required by the lock-free hash set (paper
    section 4): operations are applied only by their allocating
    thread, so the [done] bit of the specification can be elided
    (section 6). *)
module type S = sig
  include CORE

  type op

  val make_op : kind -> int -> op

  val invoke : t -> op -> bool
  (** [invoke t op] attempts to apply [op]. [true] means [op] was
      applied (its response is readable); [false] means [t] is frozen
      and [op] was not applied. *)

  val get_response : op -> bool
end

(** A cooperative wait-free FSet (paper section 7). Operations carry a
    priority; the abstract [done] bit is encoded as
    [prio = infinity_prio], which lets helping threads apply each
    operation at most once. *)
module type WF = sig
  include CORE

  type op

  val infinity_prio : int

  val make_op : kind -> int -> prio:int -> op
  (** Requires [prio <> infinity_prio] for an operation that is to be
      executed; [prio = infinity_prio] makes an inert (already-done)
      operation, useful as an announce-array placeholder. *)

  val invoke : t -> op -> bool
  (** As {!S.invoke}, but any thread may invoke any announced [op];
      the priority protocol guarantees at-most-once application. *)

  val get_response : op -> bool

  val op_kind : op -> kind
  val op_key : op -> int

  val op_prio : op -> int
  (** Current priority; becomes [infinity_prio] once the operation has
      been applied. *)

  val op_is_done : op -> bool
end
