(* Top-level, with every input an argument: a local recursive closure
   over [a] and [k] would be allocated on each call, and [mem] is on
   every array-bucket lookup. *)
let rec mem_from a k i = i < Array.length a && (a.(i) = k || mem_from a k (i + 1))
let mem a k = mem_from a k 0

let add a k =
  assert (not (mem a k));
  let n = Array.length a in
  let b = Array.make (n + 1) k in
  Array.blit a 0 b 0 n;
  b

let remove a k =
  let n = Array.length a in
  let rec index i = if a.(i) = k then i else index (i + 1) in
  let i = index 0 in
  let b = Array.make (n - 1) 0 in
  Array.blit a 0 b 0 i;
  Array.blit a (i + 1) b i (n - 1 - i);
  b

let filter_mask a ~mask ~target =
  let count = ref 0 in
  Array.iter (fun k -> if k land mask = target then incr count) a;
  let b = Array.make !count 0 in
  let j = ref 0 in
  Array.iter
    (fun k ->
      if k land mask = target then begin
        b.(!j) <- k;
        incr j
      end)
    a;
  b

let disjoint_union = Array.append

let equal_as_sets a b =
  let sort x =
    let y = Array.copy x in
    Array.sort compare y;
    y
  in
  sort a = sort b

let of_list l = Array.of_list (List.sort_uniq compare l)
