(* What one benchmark run has checked and measured so far: the
   correctness tally (every checked call or reply counts as attempted;
   a wrong answer, protocol error, id mismatch, dropped or aborted
   request, or broken invariant counts as failed) and the metric values
   by declared name. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (* the first few failures, newest first *)
  values : (string, float) Hashtbl.t;
}

let create () =
  { attempted = 0; failed = 0; problems = []; values = Hashtbl.create 128 }

let fail t what =
  t.failed <- t.failed + 1;
  if List.length t.problems < 20 then t.problems <- what :: t.problems

let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then fail t what

(* Fold in counts kept locally by a hot loop. *)
let add t ~attempted ~failed ~what =
  t.attempted <- t.attempted + attempted;
  if failed > 0 then begin
    t.failed <- t.failed + failed - 1;
    fail t (Printf.sprintf "%s: %d wrong answers" what failed)
  end

let set t name v = Hashtbl.replace t.values (Decl.find name).Decl.name v
let get t name = Hashtbl.find_opt t.values name

(* The end-to-end numbers one measured pass of a workload yields; a
   traced run makes two passes, untraced then traced, and the gap
   between them is the tracing overhead. *)
type pass = { mops : float; p50_us : float; p99_us : float }

let set_pass t p =
  set t "mops" p.mops;
  set t "p50_us" p.p50_us;
  set t "p99_us" p.p99_us

(* A workload after set-up. [measure] runs one pass; given span
   buffers (one per recording domain) it also records spans and sets
   the workload's per-layer metrics. [finish] tears down and returns
   the memory holding the data, MiB (mem_mb). *)
type session = {
  setup_s : float;
  measure : seconds:float -> spans:Spans.buf array option -> pass;
  finish : unit -> float;
}

(* Peak resident set of a process, from the kernel's VmHWM. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())
