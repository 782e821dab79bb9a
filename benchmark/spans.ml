(* Spans recorded by the benchmark around its calls into each layer:
   name, start, end, parent and an optional request id, kept in
   preallocated per-domain buffers (one buffer per recording domain,
   never shared) and written out as Chrome trace JSON when the run
   ends. Spans past a buffer's capacity are dropped and counted. *)

let names : string array ref = ref [||]

(* Span names are interned before any recording starts. *)
let intern name =
  let rec find i =
    if i = Array.length !names then begin
      names := Array.append !names [| name |];
      i
    end
    else if !names.(i) = name then i
    else find (i + 1)
  in
  find 0

type buf = {
  tid : int;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;  (* slot of the parent span in this buffer, or -1 *)
  rid : int array;  (* request id, or -1 *)
  mutable len : int;
  mutable dropped : int;
}

let create ~tid cap =
  {
    tid;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    rid = Array.make cap (-1);
    len = 0;
    dropped = 0;
  }

(* Record a finished span; returns its slot (for children to name as
   parent), or -1 when the buffer is full. *)
let record b ~name ~start ~stop ?(parent = -1) ?(rid = -1) () =
  if b.len = Array.length b.name then begin
    b.dropped <- b.dropped + 1;
    -1
  end
  else begin
    let i = b.len in
    b.name.(i) <- name;
    b.start.(i) <- start;
    b.stop.(i) <- stop;
    b.parent.(i) <- parent;
    b.rid.(i) <- rid;
    b.len <- i + 1;
    i
  end

(* A span whose end is not known yet (a trial that children are
   recorded inside of); [close] fills it in. *)
let opened b ~name ~start = record b ~name ~start ~stop:start ()
let close b slot ~stop = if slot >= 0 then b.stop.(slot) <- stop

(* Self time per span name: duration minus the part covered by its
   direct children (children of one span never overlap here, being
   sequential calls from one domain). Returns (name, count, total_ns,
   self_ns), largest self time first. *)
let self_times bufs =
  let n = Array.length !names in
  let count = Array.make n 0 and total = Array.make n 0 and self = Array.make n 0 in
  List.iter
    (fun b ->
      let child = Array.make b.len 0 in
      for i = 0 to b.len - 1 do
        let p = b.parent.(i) in
        if p >= 0 then child.(p) <- child.(p) + (b.stop.(i) - b.start.(i))
      done;
      for i = 0 to b.len - 1 do
        let d = b.stop.(i) - b.start.(i) in
        let k = b.name.(i) in
        count.(k) <- count.(k) + 1;
        total.(k) <- total.(k) + d;
        self.(k) <- self.(k) + max 0 (d - child.(i))
      done)
    bufs;
  List.init n (fun k -> (!names.(k), count.(k), total.(k), self.(k)))
  |> List.filter (fun (_, c, _, _) -> c > 0)
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let dropped bufs = List.fold_left (fun acc b -> acc + b.dropped) 0 bufs
let recorded bufs = List.fold_left (fun acc b -> acc + b.len) 0 bufs

(* Chrome trace-event JSON, loadable in Perfetto and chrome://tracing:
   one track per recording domain, microsecond float timestamps. Spans
   of one request overlap other requests' spans on the same domain
   (pipelining), so they are written as nestable async events keyed by
   the request id; the rest are complete ("X") events. *)
let write_chrome path bufs =
  let t0 =
    List.fold_left
      (fun acc b ->
        let m = ref acc in
        for i = 0 to b.len - 1 do
          if b.start.(i) < !m then m := b.start.(i)
        done;
        !m)
      max_int bufs
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[";
      let first = ref true in
      List.iter
        (fun b ->
          Printf.fprintf oc
            "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"nbbench-%d\"}}"
            (if !first then "" else ",")
            b.tid b.tid;
          first := false;
          let us t = float (t - t0) /. 1e3 in
          for i = 0 to b.len - 1 do
            let name = !names.(b.name.(i)) in
            if b.rid.(i) < 0 then
              Printf.fprintf oc
                ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"slot\":%d,\"parent\":%d}}"
                name b.tid (us b.start.(i))
                (float (b.stop.(i) - b.start.(i)) /. 1e3)
                i b.parent.(i)
            else
              Printf.fprintf oc
                ",\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\",\"id\":%d,\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"args\":{\"slot\":%d,\"parent\":%d}},\n{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\",\"id\":%d,\"pid\":1,\"tid\":%d,\"ts\":%.3f}"
                name b.rid.(i) b.tid (us b.start.(i)) i b.parent.(i) name
                b.rid.(i) b.tid (us b.stop.(i))
          done)
        bufs;
      output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n")
