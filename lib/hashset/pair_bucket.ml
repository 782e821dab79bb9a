(** The entries of the integer-keyed maps ({!Hashmap}, {!Wf_hashmap}):
    immutable (key, value) pair arrays, duplicate-key free. Every
    function returns a fresh array (or its argument unchanged); none
    writes into an array another thread can see. *)

type 'v elt = int * 'v

let find pairs k =
  let n = Array.length pairs in
  let rec go i =
    if i >= n then None
    else begin
      let ki, v = pairs.(i) in
      if ki = k then Some (i, v) else go (i + 1)
    end
  in
  go 0

(* [pairs] with the binding [p] in place of the pair at index [i] of
   [found = Some (i, _)], or appended when [found] is [None]. Key-type
   agnostic, so the generic map shares it. *)
let set pairs found p =
  match found with
  | Some (i, _) ->
    let b = Array.copy pairs in
    b.(i) <- p;
    b
  | None ->
    let n = Array.length pairs in
    let b = Array.make (n + 1) p in
    Array.blit pairs 0 b 0 n;
    b
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
