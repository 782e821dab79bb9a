(** Atomics shim of the nonblocking libraries.

    The lock-free and wait-free code never touches [Stdlib.Atomic]
    directly (enforced by [dune build @lint]); it goes through this
    module, re-pointed per file as [module Atomic =
    Nbhash_util.Nb_atomic]. With {!tracing} false — the production
    default — every operation is [Stdlib.Atomic] behind one load and
    branch. With {!tracing} true, operations first perform the {!Step}
    effect, handing control to the cooperative scheduler of
    [Nbhash_check.Explore], which replays the same compiled code under
    chosen interleavings.

    [type 'a t] is a transparent alias of ['a Stdlib.Atomic.t], so
    values flow freely between shimmed and unshimmed code. *)

type 'a t = 'a Stdlib.Atomic.t

(** The operations the nonblocking libraries are allowed to use; both
    backends satisfy it over the same representation. *)
module type ATOMIC = sig
  type 'a t = 'a Stdlib.Atomic.t

  val make : 'a -> 'a t

  val make_contended : 'a -> 'a t
  (** An atomic padded to a cache line of its own, for a hot counter
      that writers update while readers load its neighbours. *)

  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val decr : int t -> unit
end

(** What kind of atomic operation a scheduling point is about to run;
    shown in counterexample traces. *)
type label = Get | Set | Exchange | Cas | Fetch_and_add

val label_to_string : label -> string

type _ Effect.t += Step : label -> unit Effect.t
      (** Performed before each atomic operation when {!tracing} is
          on. The handler (the checker's scheduler) resumes the
          continuation when this thread is next scheduled; the
          operation then executes immediately, atomically with the
          resumption. *)

module Real : ATOMIC
(** Pass-through [Stdlib.Atomic], no flag check. *)

module Traced : ATOMIC
(** Always yields {!Step} first; only usable under a handler. *)

val tracing : bool ref
(** Model-checker hook. Only [Nbhash_check] should flip this, around a
    single-domain explored execution; it must be false whenever more
    than one domain is running. *)

(** The flag-switched default used by the libraries. *)

val make : 'a -> 'a t

val make_contended : 'a -> 'a t
(** An atomic padded to a cache line of its own (OCaml 5.2's
    [Atomic.make_contended]): creating it is not a scheduling point,
    and every other operation treats it as any atomic. *)

val get : 'a t -> 'a
val set : 'a t -> 'a -> unit
val exchange : 'a t -> 'a -> 'a
val compare_and_set : 'a t -> 'a -> 'a -> bool
val fetch_and_add : int t -> int -> int
val incr : int t -> unit
val decr : int t -> unit
