(* Everything the benchmark can report, declared once.

   BENCHMARK.json at the repository root must declare exactly these
   workloads and metrics with these units and directions; check_decl
   (run by `dune runtest`) enforces that. nbbench emits a metric only
   through [find], and its output loop walks [end_to_end] or
   [per_layer], so it can neither emit an undeclared name nor omit a
   declared one.

   Every run reports every end-to-end metric (untraced) or every
   per-layer metric (traced), whichever workload it ran. End-to-end
   metrics are therefore defined for all four workloads. A per-layer
   metric is measured only on the workloads in [measured_in] and reads
   0 on the others. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit_ : string;
  better : better;
  measured_in : string list;
  moves : (string * string list) option;
      (** per-layer metrics: the end-to-end metric this layer should
          move, and on which workloads *)
}

let read_heavy = "set-read-heavy"
let grow_shrink = "set-grow-shrink"
let kv_open = "kv-open-loop"
let kv_closed = "kv-closed-loop"
let workloads = [ read_heavy; grow_shrink; kv_open; kv_closed ]
let set_workloads = [ read_heavy; grow_shrink ]
let kv_workloads = [ kv_open; kv_closed ]

(* The measured duration of one run when --seconds is not given; the
   same number is BENCHMARK.json's run_seconds. *)
let default_seconds = 15

let e2e name unit_ better =
  { name; unit_; better; measured_in = workloads; moves = None }

let setup_s = e2e "setup_s" "s" Lower
let mops = e2e "mops" "Mops/s" Higher
let p50_us = e2e "p50_us" "us" Lower
let p99_us = e2e "p99_us" "us" Lower
let mem_mb = e2e "mem_mb" "MiB" Lower
let end_to_end = [ setup_s; mops; p50_us; p99_us; mem_mb ]

(* The table roster, each for a reason (README): LFArray is the
   Table_core path, LFArrayOpt the fastest lock-free table, WFArray the
   announce-and-help path, AdaptiveOpt the adaptive table, LFFlat the
   flat buckets, SplitOrder the paper's baseline and the noise control
   (it shares no HNode code). *)
let tables =
  [ "LFArray"; "LFArrayOpt"; "WFArray"; "AdaptiveOpt"; "LFFlat"; "SplitOrder" ]

let fsets = [ "lf-array"; "lf-flat"; "wf-array" ]

let layer ?(variants = [ "" ]) base unit_ better ~measured_in ~moves =
  List.map
    (fun v ->
      {
        name = (if v = "" then base else base ^ "." ^ v);
        unit_;
        better;
        measured_in;
        moves = Some moves;
      })
    variants

let per_layer =
  List.concat
    [
      (* FSet buckets, probed standalone at the tables' mean occupancy
         in every traced run. *)
      layer "fset.contains_ns" "ns" Lower ~variants:fsets ~measured_in:workloads
        ~moves:("mops", [ read_heavy ]);
      layer "fset.ins_rem_ns" "ns" Lower ~variants:fsets ~measured_in:workloads
        ~moves:("mops", [ grow_shrink ]);
      (* Whole tables. *)
      layer "table.mops" "Mops/s" Higher ~variants:tables
        ~measured_in:set_workloads
        ~moves:("mops", set_workloads);
      layer "table.contains_p50_ns" "ns" Lower ~variants:tables
        ~measured_in:[ read_heavy ]
        ~moves:("p50_us", [ read_heavy ]);
      layer "table.contains_p99_ns" "ns" Lower ~variants:tables
        ~measured_in:[ read_heavy ]
        ~moves:("p99_us", [ read_heavy ]);
      layer "table.update_p50_ns" "ns" Lower ~variants:tables
        ~measured_in:[ read_heavy ]
        ~moves:("mops", [ read_heavy ]);
      layer "table.update_p99_ns" "ns" Lower ~variants:tables
        ~measured_in:[ read_heavy ]
        ~moves:("p99_us", [ read_heavy ]);
      layer "table.words_per_key" "words" Lower ~variants:tables
        ~measured_in:[ read_heavy ]
        ~moves:("mops", [ read_heavy ]);
      layer "table.resizes" "count" Lower ~variants:tables
        ~measured_in:[ read_heavy ]
        ~moves:("mops", [ read_heavy ]);
      (* Resize and migration (Policy, Sweep), seen through the tables. *)
      layer "migration.grows" "count" Lower ~variants:tables
        ~measured_in:[ grow_shrink ]
        ~moves:("mops", [ grow_shrink ]);
      layer "migration.shrinks" "count" Lower ~variants:tables
        ~measured_in:[ grow_shrink ]
        ~moves:("mops", [ grow_shrink ]);
      layer "migration.update_p99_ns" "ns" Lower ~variants:tables
        ~measured_in:[ grow_shrink ]
        ~moves:("p99_us", [ grow_shrink ]);
      layer "migration.update_max_ns" "ns" Lower ~variants:tables
        ~measured_in:[ grow_shrink ]
        ~moves:("p99_us", [ grow_shrink ]);
      layer "migration.buckets_after_drain" "count" Lower ~variants:tables
        ~measured_in:[ grow_shrink ]
        ~moves:("mem_mb", [ grow_shrink ]);
      (* The KV store and its codec, probed in process. *)
      layer "backend.get_ns" "ns" Lower ~measured_in:workloads
        ~moves:("mops", [ kv_closed ]);
      layer "backend.put_ns" "ns" Lower ~measured_in:workloads
        ~moves:("mops", [ kv_closed ]);
      layer "backend.del_ns" "ns" Lower ~measured_in:workloads
        ~moves:("mops", [ kv_closed ]);
      layer "protocol.encode_request_ns" "ns" Lower ~measured_in:workloads
        ~moves:("mops", [ kv_closed ]);
      layer "protocol.decode_request_ns" "ns" Lower ~measured_in:workloads
        ~moves:("mops", [ kv_closed ]);
      layer "protocol.encode_response_ns" "ns" Lower ~measured_in:workloads
        ~moves:("mops", [ kv_closed ]);
      layer "protocol.decode_response_ns" "ns" Lower ~measured_in:workloads
        ~moves:("mops", [ kv_closed ]);
      (* The server process, seen from its socket. *)
      layer "server.rtt_p50_us" "us" Lower ~measured_in:kv_workloads
        ~moves:("p50_us", kv_workloads);
      layer "server.rtt_p99_us" "us" Lower ~measured_in:kv_workloads
        ~moves:("p99_us", kv_workloads);
      layer "server.stat_p99_us" "us" Lower ~variants:[ "get"; "put"; "del" ]
        ~measured_in:kv_workloads
        ~moves:("p99_us", kv_workloads);
      layer "server.queue_p99_us" "us" Lower ~measured_in:kv_workloads
        ~moves:("p99_us", [ kv_open ]);
      layer "server.slow_captures" "count" Lower ~measured_in:kv_workloads
        ~moves:("p99_us", [ kv_open ]);
      (* The load generator's own health, and each rate's latency (the
         open-loop p50_us and p99_us are the r2000 figures). *)
      layer "client.lag_p99_us" "us" Lower ~measured_in:[ kv_open ]
        ~moves:("p99_us", [ kv_open ]);
      layer "client.p50_us" "us" Lower ~variants:[ "r2000"; "r8000" ]
        ~measured_in:[ kv_open ]
        ~moves:("p50_us", [ kv_open ]);
      layer "client.p99_us" "us" Lower ~variants:[ "r2000"; "r8000" ]
        ~measured_in:[ kv_open ]
        ~moves:("p99_us", [ kv_open ]);
      (* What recording spans costs: traced p50 over untraced p50. *)
      layer "trace.overhead_pct" "%" Lower ~measured_in:workloads
        ~moves:("p50_us", workloads);
    ]

let all = end_to_end @ per_layer

let find name =
  match List.find_opt (fun m -> m.name = name) all with
  | Some m -> m
  | None -> invalid_arg ("Decl.find: undeclared metric " ^ name)

let better_to_string = function Higher -> "higher" | Lower -> "lower"

let valid_name s =
  let ok c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  String.length s >= 1
  && String.length s <= 64
  && String.for_all ok s
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
