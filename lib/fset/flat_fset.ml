(* Flat open-addressing freezable set (DESIGN.md System 17).

   A lock-free linear-probing FSet over a flat array of [int Atomic.t]
   slot words, with a side array of one plain fingerprint byte per
   slot so the probe loop skips most full-slot reads. This is the
   cache-friendly bucket layout of Gao-Groote-Hesselink's open
   addressing table and the "folklore" flat table of Maier et al.,
   wearing the paper's freeze protocol so it plugs into Table_core's
   grow/shrink machinery unchanged.

   Slot words pack a key and two flag bits:

     bit 0  occupied   the word carries a key in bits 2..62
     bit 1  SEAL       the freeze/migration latch

     0b000...000_00  Empty         claimable
     0b000...001_00  Tombstone     key field 1, never a valid key word
     k lsl 2 lor 01  Occupied k
     w      lor 10   sealed w      immutable forever

   Keys live in [0, 2^61): [k lsl 2] keeps bits 2..62 of the word and
   [w lsr 2] recovers k exactly. The tombstone word (key field 1,
   occupied bit clear) can never collide with an occupied encoding
   because every occupied word is odd.

   Protocol invariants the proofs in DESIGN.md lean on:

   1. Inserts claim only Empty words (CAS 0 -> enc k), never
      tombstones. A slot's key field is therefore written at most once
      per array generation ("write-once slots"), which is what makes
      the racy fingerprint bytes sound: the only nonzero tag ever
      observable for a slot is the fingerprint of its unique occupant.
      Tombstone space is reclaimed by compaction (below), not reuse.
   2. The node's [fate] arbiter is decided exactly once
      (Undecided -> Frozen | Moving). Every seal CAS happens after the
      fate is decided, so observing a sealed word implies a decided
      fate (atomics are SC).
   3. [freeze] linearizes when the last slot's SEAL bit is latched;
      an update CAS that succeeds on an unsealed word has therefore
      linearized before the freeze, and any operation that reports
      "frozen" first helps the seal sweep to completion so its refusal
      is truthful.
   4. A full probe wrap that finds no Empty word proves the key absent
      from this node forever (claims are permanent and slots are
      write-once), so concluding "absent" after consulting the fate is
      linearizable even though the walk was not atomic. *)

module Atomic = Nbhash_util.Nb_atomic
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event

(* Profiler site ids for this file's CAS-retry loops (DESIGN.md 19). *)
let site_seal = Nbhash_telemetry.Site.register "flat_fset/seal"
let site_insert = Nbhash_telemetry.Site.register "flat_fset/insert"
let site_remove = Nbhash_telemetry.Site.register "flat_fset/remove"

(* The one-shot arbiter between freezing and compaction/growth
   migration. [Frozen] means the decision, not the completion: the set
   is frozen only once the seal sweep has latched every slot. *)
type fate = Undecided | Frozen | Moving

type node = {
  mask : int;
  slots : int Atomic.t array;
  tags : Bytes.t;
      (* one plain fingerprint byte per slot; 0 = no claim witnessed *)
  fate : fate Atomic.t;
  sealed : int Atomic.t;  (* slots with the SEAL bit latched *)
  used : int Atomic.t;  (* claimed slots: occupied + tombstones *)
  live : int Atomic.t;  (* occupied slots *)
}

type t = { root : node Atomic.t }
type op = { kind : Fset_intf.kind; key : int; mutable resp : bool }

let id = "flat"

let occupied_bit = 1
let seal_bit = 2
let empty_w = 0
let tomb_w = 4 (* key field 1, occupied bit clear: not a key word *)
let enc k = (k lsl 2) lor occupied_bit
let dec w = w lsr 2
let is_occupied w = w land occupied_bit <> 0

let check_key k =
  if k < 0 || k asr 61 <> 0 then
    invalid_arg "Flat_fset: key out of [0, 2^61)"

(* Table_core routes key [k] to bucket [k land table_mask], so keys
   arriving in one bucket share their low bits; the probe home must
   come from mixed high entropy or every key would probe from slot
   0. One multiply + xor-shift of a SplitMix-style odd constant
   (fits in 62 bits). *)
let mix k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

(* Fingerprint from bits the home index does not use; 0 is reserved
   for "no claim witnessed", so collapse it to 1. *)
let fp_of_hash h =
  let f = (h lsr 13) land 0xff in
  if f = 0 then 1 else f

let new_node cap =
  {
    mask = cap - 1;
    slots = Array.init cap (fun _ -> Atomic.make empty_w);
    tags = Bytes.make cap '\000';
    fate = Atomic.make Undecided;
    sealed = Atomic.make 0;
    used = Atomic.make 0;
    live = Atomic.make 0;
  }

(* Pre-publication placement: the node is private to the constructing
   thread until it is published through an atomic (the root CAS or a
   bucket install), which carries the plain tag bytes along. *)
let place n k =
  let h = mix k in
  let home = h land n.mask in
  let rec go d =
    let idx = (home + d) land n.mask in
    if Atomic.get n.slots.(idx) = empty_w then begin
      Atomic.set n.slots.(idx) (enc k);
      (Bytes.set n.tags idx (Char.chr (fp_of_hash h))
      [@nbhash.plain_ok
        "node is private until published through an atomic; the publish \
         carries these plain bytes"])
    end
    else go (d + 1)
  in
  go 0

let create elems =
  let len = Array.length elems in
  let cap = Nbhash_util.Bits.next_pow2 (max 8 (2 * len)) in
  let n = new_node cap in
  Array.iter
    (fun k ->
      check_key k;
      place n k)
    elems;
  Atomic.set n.used len;
  Atomic.set n.live len;
  { root = Atomic.make n }

let make_op kind key =
  check_key key;
  { kind; key; resp = false }

let get_response op = op.resp

(* Latch the SEAL bit into every slot. Any number of threads help;
   each bit is latched by exactly one winning CAS, so [n.sealed]
   counts exactly and reaches capacity precisely when the sweep is
   complete. *)
let help_seal n =
  for idx = 0 to n.mask do
    let rec seal () =
      let w = Atomic.get n.slots.(idx) in
      if w land seal_bit = 0 then
        if Atomic.compare_and_set n.slots.(idx) w (w lor seal_bit) then
          Atomic.incr n.sealed
        else begin
          Tm.cas_retry site_seal;
          seal ()
        end
    in
    seal ()
  done

(* Contents of a fully sealed node, in slot order. Sealed words are
   immutable, so every caller computes the identical array. *)
let sealed_elements n =
  let acc = ref [] in
  let count = ref 0 in
  for idx = n.mask downto 0 do
    let w = Atomic.get n.slots.(idx) in
    if is_occupied w then begin
      incr count;
      acc := dec w :: !acc
    end
  done;
  let a = Array.make !count 0 in
  List.iteri (fun i k -> a.(i) <- k) !acc;
  a

let decide_move n =
  let rec go () =
    match Atomic.get n.fate with
    | Undecided ->
        if not (Atomic.compare_and_set n.fate Undecided Moving) then go ()
    | Frozen | Moving -> ()
  in
  go ()

(* Help a decided migration: seal the old node, rebuild its live keys
   into a right-sized fresh node (tombstones evaporate here — this is
   both growth and compaction), and install it. The new capacity is a
   pure function of the sealed contents, so racing helpers construct
   interchangeable successors and the root CAS picks one. *)
let help_move t old =
  help_seal old;
  if Atomic.get t.root == old then begin
    let keys = sealed_elements old in
    let nlive = Array.length keys in
    let cap = Nbhash_util.Bits.next_pow2 (max 8 (2 * nlive)) in
    let fresh = new_node cap in
    Array.iter (fun k -> place fresh k) keys;
    Atomic.set fresh.used nlive;
    Atomic.set fresh.live nlive;
    ignore
      ((Atomic.compare_and_set t.root old fresh)
      [@nbhash.cas_ok
        "a lost race means another helper installed an interchangeable \
         successor built from the same sealed contents"])
  end

(* Grow/compact once claimed slots (live + tombstones) reach 3/4 of
   capacity, so probe runs stay short and tombstone accumulation from
   remove-heavy workloads is reclaimed instead of wedging the array. *)
let claim_threshold n =
  let cap = n.mask + 1 in
  cap - (cap lsr 2)

let rec invoke t op =
  let n = Atomic.get t.root in
  match op.kind with
  | Fset_intf.Ins -> insert t n op
  | Fset_intf.Rem -> remove t n op

and insert t n op =
  let h = mix op.key in
  let home = h land n.mask in
  let f = fp_of_hash h in
  let w_occ = enc op.key in
  (* Consulted only after witnessing a sealed word, so the fate is
     decided (invariant 2) and refusing is truthful after helping the
     sweep finish (invariant 3). *)
  let on_sealed () =
    match Atomic.get n.fate with
    | Frozen ->
        help_seal n;
        false
    | Moving ->
        help_move t n;
        invoke t op
    | Undecided -> assert false (* a sealed word implies a decided fate *)
  in
  let rec go d =
    if d > n.mask then full_wrap ()
    else
      let idx = (home + d) land n.mask in
      let tag = Char.code (Bytes.get n.tags idx) in
      if tag <> 0 && tag <> f then
        (* claimed by a key with a different fingerprint: skip the
           slot word entirely (write-once slots, invariant 1) *)
        go (d + 1)
      else at_word idx d
  and at_word idx d =
    let w = Atomic.get n.slots.(idx) in
    if w = empty_w then
      if Atomic.compare_and_set n.slots.(idx) empty_w w_occ then begin
        (Bytes.set n.tags idx (Char.chr f)
        [@nbhash.plain_ok
          "racy prefilter bytes: a slot's key is written at most once per \
           array generation, so the only nonzero tag observable here is \
           the fingerprint of the unique occupant; a stale 0 read just \
           forces the slot-word read"]);
        Atomic.incr n.used;
        Atomic.incr n.live;
        Tm.observe Ev.Probe_len d;
        op.resp <- true;
        (if Atomic.get n.used >= claim_threshold n then begin
           decide_move n;
           match Atomic.get n.fate with
           | Moving -> help_move t n
           | Frozen | Undecided -> ()
         end);
        true
      end
      else begin
        Tm.cas_retry site_insert;
        at_word idx d
      end
    else if w lor seal_bit = w_occ lor seal_bit then
      if w land seal_bit = 0 then begin
        (* present and unsealed: redundant insert linearizes at the
           word read, which precedes any freeze *)
        Tm.observe Ev.Probe_len d;
        op.resp <- false;
        true
      end
      else on_sealed ()
    else if w = empty_w lor seal_bit then on_sealed ()
    else go (d + 1)
  and full_wrap () =
    (* no claimable slot left in this generation *)
    match Atomic.get n.fate with
    | Undecided ->
        decide_move n;
        full_wrap ()
    | Frozen ->
        help_seal n;
        false
    | Moving ->
        help_move t n;
        invoke t op
  in
  go 0

and remove t n op =
  let h = mix op.key in
  let home = h land n.mask in
  let f = fp_of_hash h in
  let w_occ = enc op.key in
  let on_sealed () =
    match Atomic.get n.fate with
    | Frozen ->
        help_seal n;
        false
    | Moving ->
        help_move t n;
        invoke t op
    | Undecided -> assert false (* a sealed word implies a decided fate *)
  in
  let rec go d =
    if d > n.mask then full_wrap ()
    else
      let idx = (home + d) land n.mask in
      let tag = Char.code (Bytes.get n.tags idx) in
      if tag <> 0 && tag <> f then go (d + 1) else at_word idx d
  and at_word idx d =
    let w = Atomic.get n.slots.(idx) in
    if w = empty_w then begin
      (* absent; the unsealed Empty word proves the freeze has not
         linearized, so the redundant remove may apply (invariant 3) *)
      Tm.observe Ev.Probe_len d;
      op.resp <- false;
      true
    end
    else if w = empty_w lor seal_bit then on_sealed ()
    else if w lor seal_bit = w_occ lor seal_bit then
      if w land seal_bit = 0 then
        if Atomic.compare_and_set n.slots.(idx) w_occ tomb_w then begin
          Atomic.decr n.live;
          Tm.observe Ev.Probe_len d;
          op.resp <- true;
          true
        end
        else begin
          Tm.cas_retry site_remove;
          at_word idx d
        end
      else on_sealed ()
    else go (d + 1)
  and full_wrap () =
    match Atomic.get n.fate with
    | Undecided ->
        (* invariant 4: every slot is permanently claimed by another
           key or tombed, so the key is absent for the rest of this
           generation; an undecided fate proves no freeze has
           linearized yet, so the redundant remove may apply *)
        op.resp <- false;
        true
    | Frozen ->
        help_seal n;
        false
    | Moving ->
        help_move t n;
        invoke t op
  in
  go 0

(* Pure reader: never helps, answers from whichever root it loaded.
   An old, fully sealed node remains the truth until the successor's
   root CAS, so reads during a migration stay linearizable. The probe
   loop is top-level and takes its state as arguments, so a lookup
   allocates nothing. *)
let rec probe_member n ~home ~f ~w_occ d =
  if d > n.mask then false
  else
    let idx = (home + d) land n.mask in
    let tag = Char.code (Bytes.get n.tags idx) in
    if tag <> 0 && tag <> f then probe_member n ~home ~f ~w_occ (d + 1)
    else
      let w = Atomic.get n.slots.(idx) in
      if w land lnot seal_bit = empty_w then false
      else if w lor seal_bit = w_occ lor seal_bit then true
      else probe_member n ~home ~f ~w_occ (d + 1)

let has_member t k =
  check_key k;
  let n = Atomic.get t.root in
  let h = mix k in
  probe_member n ~home:(h land n.mask) ~f:(fp_of_hash h) ~w_occ:(enc k) 0

let rec freeze t =
  let n = Atomic.get t.root in
  match Atomic.get n.fate with
  | Undecided ->
      if Atomic.compare_and_set n.fate Undecided Frozen then begin
        Tm.emit Ev.Freeze;
        help_seal n;
        sealed_elements n
      end
      else freeze t
  | Frozen ->
      help_seal n;
      sealed_elements n
  | Moving ->
      help_move t n;
      freeze t

let size t = Atomic.get (Atomic.get t.root).live

let elements t =
  let n = Atomic.get t.root in
  let acc = ref [] in
  for idx = n.mask downto 0 do
    let w = Atomic.get n.slots.(idx) in
    if is_occupied w then acc := dec w :: !acc
  done;
  Array.of_list !acc

let is_frozen t =
  let n = Atomic.get t.root in
  match Atomic.get n.fate with
  | Frozen -> Atomic.get n.sealed = n.mask + 1
  | Undecided | Moving -> false

(* Diagnostic: per-probe-distance census of the current generation's
   occupied slots — [census.(d)] keys sit [d] slots past their home.
   Racy by design; exact in quiescent states. Not part of
   [Fset_intf.S]; tests and bench reach it directly. *)
let probe_census t =
  let n = Atomic.get t.root in
  let census = Array.make (n.mask + 1) 0 in
  let maxd = ref 0 in
  for idx = 0 to n.mask do
    let w = Atomic.get n.slots.(idx) in
    if is_occupied w then begin
      let home = mix (dec w) land n.mask in
      let d = (idx - home) land n.mask in
      census.(d) <- census.(d) + 1;
      if d > !maxd then maxd := d
    end
  done;
  Array.sub census 0 (!maxd + 1)

(* Capacity of the current generation; diagnostics only. *)
let capacity t = (Atomic.get t.root).mask + 1
