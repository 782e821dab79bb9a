(* Layer probes for a traced run: single-domain timing of calls into
   one layer's public functions, each reported as the median over 5
   repetitions of ns per call, with every answer checked.

   - fset: a standalone Lf_array_fset, Flat_fset and Wf_array_fset
     holding as many keys as the read-heavy tables' mean bucket
     occupancy; contains over half members, half non-members; an
     insert of an absent key paired with its removal.
   - backend: Nbhash_server.Backend with 2 lock-free shards prefilled
     like the KV workloads; GET over uniform keys, PUT over present
     keys, DEL of present keys (re-inserted untimed).
   - protocol: the codec over the KV mix. Request decode takes v2
     frames produced by [write_request_v2]; the v2 writer and reader
     splice the request id around the v1 payload codec, which is what
     encode and response decode time. *)

module Clock = Nbhash_util.Clock
module X = Nbhash_util.Xoshiro
module P = Nbhash_server.Protocol
module Backend = Nbhash_server.Backend

let reps = 5

let sp_probe = Spans.intern "probe"

(* ns per call of [f], which makes [calls] calls; median of [reps]. A
   span covers each repetition when tracing. *)
let time_per_call ~spans ~calls f =
  Quant.median
    (Array.init reps (fun _ ->
         let t0 = Clock.now_ns () in
         f ();
         let t1 = Clock.now_ns () in
         Option.iter
           (fun b -> ignore (Spans.record b ~name:sp_probe ~start:t0 ~stop:t1 ()))
           spans;
         float (t1 - t0) /. float calls))

module type PROBED = sig
  type t

  val create : int array -> t
  val has_member : t -> int -> bool
  val insert : t -> int -> bool
  val remove : t -> int -> bool
end

module Lf (F : Nbhash_fset.Fset_intf.S) : PROBED = struct
  type t = F.t

  let create = F.create
  let has_member = F.has_member

  let apply t kind k =
    let op = F.make_op kind k in
    F.invoke t op && F.get_response op

  let insert t k = apply t Nbhash_fset.Fset_intf.Ins k
  let remove t k = apply t Nbhash_fset.Fset_intf.Rem k
end

module Wf (F : Nbhash_fset.Fset_intf.WF) : PROBED = struct
  type t = F.t

  let create = F.create
  let has_member = F.has_member
  let prio = ref 0

  let apply t kind k =
    incr prio;
    let op = F.make_op kind k ~prio:!prio in
    F.invoke t op && F.get_response op

  let insert t k = apply t Nbhash_fset.Fset_intf.Ins k
  let remove t k = apply t Nbhash_fset.Fset_intf.Rem k
end

let fsets : (string * (module PROBED)) list =
  [
    ("lf-array", (module Lf (Nbhash_fset.Lf_array_fset)));
    ("lf-flat", (module Lf (Nbhash_fset.Flat_fset)));
    ("wf-array", (module Wf (Nbhash_fset.Wf_array_fset)));
  ]

let () = assert (List.map fst fsets = Decl.fsets)

(* The mean bucket occupancy of a read-heavy starting table. *)
let occupancy () =
  let module T = Nbhash.Tables.LFArray in
  let t = T.create ~policy:Nbhash.Policy.default () in
  let h = T.register t in
  for j = 0 to Set_load.rh_keys - 1 do
    ignore (T.insert h (2 * j))
  done;
  max 1 (Float.to_int (Float.round (T.inspect t).load_factor))

let fset out ~spans =
  let n = occupancy () in
  let members = Array.init n (fun i -> 2 * i) in
  let queries = Array.init 1024 (fun i -> i mod (2 * n)) in
  let rounds = 256 in
  List.iter
    (fun (name, (module F : PROBED)) ->
      let t = F.create members in
      let wrong = ref 0 in
      let contains () =
        for _ = 1 to rounds do
          Array.iter
            (fun k -> if F.has_member t k <> (k land 1 = 0) then incr wrong)
            queries
        done
      in
      Outcome.set out ("fset.contains_ns." ^ name)
        (time_per_call ~spans ~calls:(rounds * 1024) contains);
      let absent = Array.init 64 (fun i -> (2 * n) + (2 * i) + 1) in
      let pairs = 2048 in
      let ins_rem () =
        for i = 0 to pairs - 1 do
          let k = absent.(i land 63) in
          if not (F.insert t k) then incr wrong;
          if not (F.remove t k) then incr wrong
        done
      in
      Outcome.set out ("fset.ins_rem_ns." ^ name)
        (time_per_call ~spans ~calls:(2 * pairs) ins_rem);
      Outcome.add out
        ~attempted:(reps * ((rounds * 1024) + (2 * pairs)))
        ~failed:!wrong ~what:("fset " ^ name))
    fsets

let backend out ~spans ~seed =
  let b = Backend.create ~kind:Backend.Lockfree ~shards:2 ~max_threads:4 () in
  let h = Backend.register b in
  let rng = X.create ((seed * 31) + 7) in
  let keys = 1 lsl 16 in
  let value = String.make 32 'v' in
  let present = Array.init keys (fun _ -> X.below rng 4 <> 0) in
  Array.iteri (fun k p -> if p then Backend.put h k value) present;
  let calls = 1 lsl 14 in
  let uniform = Array.init calls (fun _ -> X.below rng keys) in
  let live = Array.of_list (List.filter (fun k -> present.(k)) (List.init keys Fun.id)) in
  let some_live = Array.init calls (fun i -> live.(i * 7919 mod Array.length live)) in
  let dels = Array.sub live 0 calls in
  let wrong = ref 0 in
  Outcome.set out "backend.get_ns"
    (time_per_call ~spans ~calls (fun () ->
         Array.iter
           (fun k -> if Option.is_some (Backend.get h k) <> present.(k) then incr wrong)
           uniform));
  Outcome.set out "backend.put_ns"
    (time_per_call ~spans ~calls (fun () ->
         Array.iter (fun k -> Backend.put h k value) some_live));
  let del_ns =
    Quant.median
      (Array.init reps (fun _ ->
           let t0 = Clock.now_ns () in
           Array.iter (fun k -> if not (Backend.del h k) then incr wrong) dels;
           let dt = Clock.now_ns () - t0 in
           Array.iter (fun k -> Backend.put h k value) dels;
           float dt /. float calls))
  in
  Outcome.set out "backend.del_ns" del_ns;
  Outcome.check out (Backend.cardinal b = Array.length live) "backend cardinal";
  Outcome.add out ~attempted:(reps * calls * 2) ~failed:!wrong ~what:"backend";
  Backend.unregister h;
  Backend.close b

let protocol out ~spans ~seed =
  let rng = X.create ((seed * 31) + 11) in
  let n = 4096 in
  let value = String.make 32 'v' in
  let requests =
    Array.init n (fun _ ->
        let k = X.below rng (1 lsl 16) in
        match X.below rng 100 with
        | r when r < 80 -> P.Get k
        | r when r < 95 -> P.Put (k, value)
        | _ -> P.Del k)
  in
  let responses =
    Array.map
      (function
        | P.Get _ -> if X.below rng 4 = 0 then P.Not_found else P.Value value
        | P.Del _ -> if X.below rng 4 = 0 then P.Not_found else P.Ok
        | _ -> P.Ok)
      requests
  in
  (* Real v2 request frames, captured through a socket pair. *)
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frames =
    Array.mapi
      (fun id r ->
        P.write_request_v2 a ~id r;
        match P.read_frame b with
        | Ok (Some payload) -> payload
        | _ -> failwith "protocol probe: frame lost")
      requests
  in
  Unix.close a;
  Unix.close b;
  let response_payloads = Array.map P.response_to_payload responses in
  let wrong = ref 0 in
  let rounds = 16 in
  let calls = rounds * n in
  let each a f () =
    for _ = 1 to rounds do
      Array.iteri f a
    done
  in
  Outcome.set out "protocol.encode_request_ns"
    (time_per_call ~spans ~calls
       (each requests (fun _ r -> ignore (Sys.opaque_identity (P.request_to_payload r)))));
  Outcome.set out "protocol.decode_request_ns"
    (time_per_call ~spans ~calls
       (each frames (fun i f ->
            if P.request_of_payload_v2 f <> Ok requests.(i) then incr wrong)));
  Outcome.set out "protocol.encode_response_ns"
    (time_per_call ~spans ~calls
       (each responses (fun _ r ->
            ignore (Sys.opaque_identity (P.response_to_payload r)))));
  Outcome.set out "protocol.decode_response_ns"
    (time_per_call ~spans ~calls
       (each response_payloads (fun i p ->
            if P.response_of_payload p <> Ok responses.(i) then incr wrong)));
  Outcome.add out ~attempted:(reps * calls * 2) ~failed:!wrong ~what:"protocol"

let run out ~spans ~seed =
  fset out ~spans;
  backend out ~spans ~seed;
  protocol out ~spans ~seed
