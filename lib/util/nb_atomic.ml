(* The atomics shim of the nonblocking libraries.

   Every module in lib/fset, lib/hashset, lib/splitorder, lib/michael
   and lib/telemetry re-points its [Atomic] at this module
   (`module Atomic = Nbhash_util.Nb_atomic`); a lint (`dune build
   @lint`) rejects direct [Stdlib.Atomic] there. In production the
   shim is a pass-through: one load of [tracing] and a predictable
   branch per operation. Under the model checker ([Nbhash_check]) the
   flag is raised and every operation first performs the [Step]
   effect, yielding to a single-domain cooperative scheduler that
   decides which "thread" runs next — the same compiled code then
   executes deterministically under an explored schedule. *)

type 'a t = 'a Stdlib.Atomic.t

module type ATOMIC = sig
  type 'a t = 'a Stdlib.Atomic.t

  val make : 'a -> 'a t
  val make_contended : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val decr : int t -> unit
end

(* Operation labels, carried by the [Step] effect so counterexample
   traces can say what each scheduled step was about to do. *)
type label = Get | Set | Exchange | Cas | Fetch_and_add

let label_to_string = function
  | Get -> "get"
  | Set -> "set"
  | Exchange -> "exchange"
  | Cas -> "compare_and_set"
  | Fetch_and_add -> "fetch_and_add"

type _ Effect.t += Step : label -> unit Effect.t

(* An atomic alone on its cache line, as OCaml 5.2's
   [Atomic.make_contended] builds it: a block whose field 0 is the
   value and whose other fields are padding, so that writes to a hot
   counter do not invalidate the line of a neighbour that is read on
   every operation. With 15 padding words after the value, nothing
   allocated after the block shares the value's line or the next one
   (adjacent-line prefetchers fetch lines in pairs). Every
   [Stdlib.Atomic] operation reads and writes field 0 of its block
   only, so the padded block is an ['a t]. The fields past 0 stay unit,
   which the GC scans as immediates. *)
let contended_fields = 16

let make_contended (v : 'a) : 'a Stdlib.Atomic.t =
  let b = Obj.new_block 0 contended_fields in
  Obj.set_field b 0 (Obj.repr v);
  (Obj.magic b
  [@nbhash.magic_ok
    "a tag-0 block whose field 0 holds the value has the layout of an \
     atomic; the extra fields are never read as atomics"])

(* The production backend: [Stdlib.Atomic] verbatim. *)
module Real : ATOMIC = struct
  type 'a t = 'a Stdlib.Atomic.t

  let make = Stdlib.Atomic.make
  let make_contended = make_contended
  let get = Stdlib.Atomic.get
  let set = Stdlib.Atomic.set
  let exchange = Stdlib.Atomic.exchange
  let compare_and_set = Stdlib.Atomic.compare_and_set
  let fetch_and_add = Stdlib.Atomic.fetch_and_add
  let incr = Stdlib.Atomic.incr
  let decr = Stdlib.Atomic.decr
end

(* The checker backend: announce the operation as a scheduling point,
   then execute it for real once the scheduler resumes us. Because the
   scheduler is cooperative and single-domain, nothing can run between
   the resumption and the operation itself, so the yield-before-op
   protocol gives each atomic operation an exact place in the explored
   schedule. *)
module Traced : ATOMIC = struct
  type 'a t = 'a Stdlib.Atomic.t

  let make v = Stdlib.Atomic.make v
  let make_contended = make_contended

  let get r =
    Effect.perform (Step Get);
    Stdlib.Atomic.get r

  let set r v =
    Effect.perform (Step Set);
    Stdlib.Atomic.set r v

  let exchange r v =
    Effect.perform (Step Exchange);
    Stdlib.Atomic.exchange r v

  let compare_and_set r old nw =
    Effect.perform (Step Cas);
    Stdlib.Atomic.compare_and_set r old nw

  let fetch_and_add r n =
    Effect.perform (Step Fetch_and_add);
    Stdlib.Atomic.fetch_and_add r n

  let incr r =
    Effect.perform (Step Fetch_and_add);
    Stdlib.Atomic.incr r

  let decr r =
    Effect.perform (Step Fetch_and_add);
    Stdlib.Atomic.decr r
end

(* Raised only by the model checker, single-domain, around each
   explored execution; never written while real domains run, so the
   plain ref is race-free in production. *)
let tracing = ref false

let[@inline] make v = Stdlib.Atomic.make v
let make_contended = make_contended
let[@inline] get r = if !tracing then Traced.get r else Stdlib.Atomic.get r
let[@inline] set r v = if !tracing then Traced.set r v else Stdlib.Atomic.set r v

let[@inline] exchange r v =
  if !tracing then Traced.exchange r v else Stdlib.Atomic.exchange r v

let[@inline] compare_and_set r old nw =
  if !tracing then Traced.compare_and_set r old nw
  else Stdlib.Atomic.compare_and_set r old nw

let[@inline] fetch_and_add r n =
  if !tracing then Traced.fetch_and_add r n else Stdlib.Atomic.fetch_and_add r n

let[@inline] incr r = if !tracing then Traced.incr r else Stdlib.Atomic.incr r
let[@inline] decr r = if !tracing then Traced.decr r else Stdlib.Atomic.decr r
