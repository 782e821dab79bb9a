(* Order statistics shared by the benchmark and its comparator. *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Linear interpolation between closest ranks; [a] must be sorted and
   non-empty. *)
let percentile_sorted a p = Nbhash_util.Stats.percentile_sorted a p
let percentile a p = percentile_sorted (sorted a) p
let median a = percentile a 50.

let median_list l = median (Array.of_list l)

let geomean a =
  exp (Array.fold_left (fun acc x -> acc +. log x) 0. a /. float (Array.length a))

(* The three cut points of Python's [statistics.quantiles(data, n=4)]
   (its default "exclusive" method), which is how run-to-run spread is
   judged: (q3 - q1) / median. Needs at least two values. *)
let quartiles a =
  let d = sorted a in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Quant.quartiles: need at least two values";
  let m = ld + 1 in
  Array.init 3 (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float (4 - delta)) +. (d.(j) *. float delta)) /. 4.)

(* The better decile of figures taken over many short pieces of a run
   (trials, windows): the upper decile when higher is better, the lower
   decile when lower is. Interference from other tenants only ever
   makes a piece slower, so this is the least disturbed figure that is
   not a single extreme. *)
let best (better : Decl.better) a =
  percentile a (match better with Higher -> 90. | Lower -> 10.)

(* A buffer of integer samples (latencies in ns), preallocated so that
   recording on a hot path never allocates; samples past its capacity
   are dropped (capacities are sized for the fastest rates seen). *)
module Samples = struct
  type t = { data : int array; mutable len : int }

  let create cap = { data = Array.make cap 0; len = 0 }
  let clear t = t.len <- 0

  let[@inline] add t v =
    if t.len < Array.length t.data then begin
      t.data.(t.len) <- v;
      t.len <- t.len + 1
    end

  (* In-place heapsort of a.(0 .. n-1). *)
  let sort_prefix (a : int array) n =
    let swap i j =
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    in
    let rec sift i n =
      let l = (2 * i) + 1 in
      if l < n then begin
        let c = if l + 1 < n && a.(l + 1) > a.(l) then l + 1 else l in
        if a.(c) > a.(i) then begin
          swap i c;
          sift c n
        end
      end
    in
    for i = (n / 2) - 1 downto 0 do
      sift i n
    done;
    for k = n - 1 downto 1 do
      swap 0 k;
      sift 0 k
    done

  (* Percentiles [ps] of the union of [ts], linearly interpolated like
     [percentile_sorted], sorting in [scratch] so that a hot loop of
     trials allocates nothing large; 0 when there are no samples. *)
  let percentiles ~(scratch : int array) ts ps =
    let n = ref 0 in
    List.iter
      (fun t ->
        Array.blit t.data 0 scratch !n t.len;
        n := !n + t.len)
      ts;
    let n = !n in
    sort_prefix scratch n;
    List.map
      (fun p ->
        if n = 0 then 0.
        else
          let rank = p /. 100. *. float (n - 1) in
          let lo = int_of_float rank in
          let hi = min (lo + 1) (n - 1) in
          float scratch.(lo) +. ((rank -. float lo) *. float (scratch.(hi) - scratch.(lo))))
      ps

  (* Sorted float copy of several buffers, for percentile reads. *)
  let merged_sorted ts =
    let n = List.fold_left (fun acc t -> acc + t.len) 0 ts in
    let out = Array.make n 0. in
    let pos = ref 0 in
    List.iter
      (fun t ->
        for i = 0 to t.len - 1 do
          out.(!pos + i) <- float t.data.(i)
        done;
        pos := !pos + t.len)
      ts;
    Array.sort Float.compare out;
    out
end
