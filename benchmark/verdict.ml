(* Run-against-run comparison: a parent's runs (A) against a change's
   runs (B), per (workload, metric).

   - Improved: B wins at least 9 in 10 of the pairs (ties count for
     neither) and the medians differ by more than A's own spread, its
     interquartile distance over its median.
   - End-to-end metrics, which have a bound (BENCHMARK.json):
     Regressed when B's median is worse than A's by more than the
     bound; but when A's spread is itself wider than the bound, the
     verdict is Unresolved unless every B run is worse than every A
     run. Otherwise Same, or Unresolved when A's spread is wider than
     the bound and not every B run is better than every A run.
   - Per-layer metrics have no bound: Regressed when A wins 9 in 10
     pairs by more than A's spread, Same when the medians are within
     A's spread, Unresolved otherwise. *)

type verdict = Improved | Same | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Same -> "same"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"

type row = {
  workload : string;
  metric : string;
  a : float array;
  b : float array;
  won : int;  (* pairs in which B is strictly better *)
  pairs : int;
  verdict : verdict;
}

let quartiles a =
  if Array.length a >= 2 then Quant.quartiles a
  else Array.make 3 (if Array.length a = 1 then a.(0) else nan)

let judge ~(better : Decl.better) ~bound a b =
  let beats x y = match better with Decl.Higher -> x > y | Lower -> x < y in
  let pairs = min (Array.length a) (Array.length b) in
  let count f = List.length (List.filter f (List.init pairs Fun.id)) in
  let won = count (fun i -> beats b.(i) a.(i)) in
  let lost = count (fun i -> beats a.(i) b.(i)) in
  let qa = quartiles a and qb = quartiles b in
  let ma = qa.(1) and mb = qb.(1) in
  let verdict =
    if ma = 0. && mb = 0. then Same
    else if ma = 0. then Unresolved
    else begin
      (* > 0 when B is worse. *)
      let worse =
        (match better with Decl.Higher -> ma -. mb | Lower -> mb -. ma)
        /. Float.abs ma
      in
      let spread = (qa.(2) -. qa.(0)) /. Float.abs ma in
      let every f = Array.for_all (fun x -> Array.for_all (fun y -> f x y) a) b in
      let nine_tenths n = pairs > 0 && 10 * n >= 9 * pairs in
      if nine_tenths won && -.worse > spread then Improved
      else
        match bound with
        | Some bound ->
          if worse > bound then
            if spread > bound && not (every (fun x y -> beats y x)) then Unresolved
            else Regressed
          else if spread > bound && not (every beats) then Unresolved
          else Same
        | None ->
          if nine_tenths lost && worse > spread then Regressed
          else if Float.abs worse <= spread then Same
          else Unresolved
    end
  in
  (won, pairs, verdict)

(* --- run files --- *)

(* One run of one workload: (workload, seed, metric values). *)
type run = { workload : string; seed : int; values : (string * float) list }

let ( let* ) = Option.bind

(* nbbench --out files: {"meta":{..,"seed":N,..},"runs":[{"workload":W,
   "result":{"correct":..,"metrics":{NAME:{"value":V,"unit":U}}}}]}. *)
let runs_of_json j =
  let open Nbhash_util.Json in
  let seed =
    Option.value ~default:0
      (let* m = member "meta" j in
       let* s = member "seed" m in
       Option.map int_of_float (to_num s))
  in
  let* runs = Option.bind (member "runs" j) to_list in
  Some
    (List.filter_map
       (fun r ->
         let* w = Option.bind (member "workload" r) to_str in
         let* res = member "result" r in
         let* ms = member "metrics" res in
         let* names = keys ms in
         Some
           {
             workload = w;
             seed;
             values =
               List.filter_map
                 (fun n ->
                   let* m = member n ms in
                   let* v = Option.bind (member "value" m) to_num in
                   Some (n, v))
                 names;
           })
       runs)

let load_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         match Nbhash_util.Json.parse_file path with
         | Error e -> failwith (path ^ ": " ^ e)
         | Ok j -> (
           match runs_of_json j with
           | Some rs -> rs
           | None -> failwith (path ^ ": not an nbbench --out file")))
  |> List.stable_sort (fun a b -> compare a.seed b.seed)

(* End-to-end bounds from BENCHMARK.json. *)
let bounds_of_json j =
  let open Nbhash_util.Json in
  Option.value ~default:[]
    (let* l = Option.bind (member "end_to_end" j) to_list in
     Some
       (List.filter_map
          (fun m ->
            let* n = Option.bind (member "name" m) to_str in
            let* b = Option.bind (member "bound" m) to_num in
            Some (n, b))
          l))

(* Rows for every (workload, metric) both sides report, in
   declaration order. *)
let compare_runs ~bounds (a : run list) (b : run list) =
  let values runs w name =
    Array.of_list
      (List.filter_map
         (fun r -> if r.workload = w then List.assoc_opt name r.values else None)
         runs)
  in
  List.concat_map
    (fun w ->
      List.filter_map
        (fun (m : Decl.metric) ->
          let va = values a w m.name and vb = values b w m.name in
          if Array.length va = 0 || Array.length vb = 0 then None
          else
            let won, pairs, verdict =
              judge ~better:m.better ~bound:(List.assoc_opt m.name bounds) va vb
            in
            Some { workload = w; metric = m.name; a = va; b = vb; won; pairs; verdict })
        Decl.all)
    Decl.workloads
