(** The entries of the integer-keyed maps ({!Hashmap}, {!Wf_hashmap}):
    immutable (key, value) pair arrays, duplicate-key free. Every
    function returns a fresh array (or its argument unchanged); none
    writes into an array another thread can see. *)

type 'v elt = int * 'v

let rec find_from (pairs : 'v elt array) k i =
  if i >= Array.length pairs then -1
  else if fst pairs.(i) = k then i
  else find_from pairs k (i + 1)

(* The index of [k]'s pair, or -1 when [k] is unbound. A loop over
   arguments, so a lookup allocates nothing. *)
let find pairs k = find_from pairs k 0

(* The value at index [i] of a [find], as an option. *)
let binding pairs i = if i < 0 then None else Some (snd pairs.(i))
let lookup pairs k = binding pairs (find pairs k)

(* [pairs] with the binding [p] in place of the pair at index [i], or
   appended when [i] is -1. Key-type agnostic, so the generic map
   shares it. *)
let set pairs i p =
  if i >= 0 then begin
    let b = Array.copy pairs in
    b.(i) <- p;
    b
  end
  else begin
    let n = Array.length pairs in
    let b = Array.make (n + 1) p in
    Array.blit pairs 0 b 0 n;
    b
  end
[@@nbhash.plain_ok
  "copy-on-write: [b] is freshly allocated here and stays private until \
   published by a bucket CAS"]

(* Drop the pair at index [i]. *)
let remove pairs i =
  let n = Array.length pairs in
  let b = Array.sub pairs 0 (n - 1) in
  if i < n - 1 then b.(i) <- pairs.(n - 1);
  b
[@@nbhash.plain_ok
  "copy-on-write: [b] is freshly allocated here and stays private until \
   published by a bucket CAS"]

let hash (k, _) = k
let same_key (a, _) (b, _) = a = b
let split pairs = Table_core.split_by hash pairs
let merge = Array.append
