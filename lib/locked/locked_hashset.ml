module Policy = Nbhash.Policy
module Hashset_intf = Nbhash.Hashset_intf

type t = {
  lock : Mutex.t;
  mutable buckets : int list array;
  mutable mask : int;
  mutable cardinal : int;
  mutable grows : int;
  mutable shrinks : int;
  policy : Policy.t;
}

type handle = t

let name = "Locked"

let create ?(policy = Policy.default) ?max_threads () =
  ignore max_threads;
  Policy.validate policy;
  {
    lock = Mutex.create ();
    buckets = Array.make policy.Policy.init_buckets [];
    mask = policy.Policy.init_buckets - 1;
    cardinal = 0;
    grows = 0;
    shrinks = 0;
    policy;
  }

let register t = t
let unregister _ = ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Rebuild in place; called with the lock held. *)
let resize_locked t grow =
  let old_size = t.mask + 1 in
  let within =
    if grow then old_size * 2 <= t.policy.Policy.max_buckets
    else old_size / 2 >= t.policy.Policy.min_buckets
  in
  if (old_size > 1 || grow) && within then begin
    let size = if grow then old_size * 2 else old_size / 2 in
    let fresh = Array.make size [] in
    Array.iter
      (List.iter (fun k ->
           let i = k land (size - 1) in
           fresh.(i) <- k :: fresh.(i)))
      t.buckets;
    t.buckets <- fresh;
    t.mask <- size - 1;
    if grow then t.grows <- t.grows + 1 else t.shrinks <- t.shrinks + 1
  end

let loads t =
  match t.policy.Policy.heuristic with
  | Policy.Load_factor { grow; shrink } -> (grow, shrink)
  | Policy.Bucket_size { grow_threshold; shrink_threshold; _ } ->
    (float_of_int grow_threshold, float_of_int shrink_threshold)

let maybe_resize_locked t =
  if t.policy.Policy.enabled then begin
    let grow_load, shrink_load = loads t in
    let size = float_of_int (t.mask + 1) in
    let count = float_of_int t.cardinal in
    if count > grow_load *. size then resize_locked t true
    else if count < shrink_load *. size then resize_locked t false
  end

let insert t k =
  Hashset_intf.check_key k;
  locked t (fun () ->
      let i = k land t.mask in
      if List.mem k t.buckets.(i) then false
      else begin
        t.buckets.(i) <- k :: t.buckets.(i);
        t.cardinal <- t.cardinal + 1;
        maybe_resize_locked t;
        true
      end)

let remove t k =
  Hashset_intf.check_key k;
  locked t (fun () ->
      let i = k land t.mask in
      if List.mem k t.buckets.(i) then begin
        t.buckets.(i) <- List.filter (fun x -> x <> k) t.buckets.(i);
        t.cardinal <- t.cardinal - 1;
        maybe_resize_locked t;
        true
      end
      else false)

(* [List.mem] on ints cannot raise, so the lookup needs no
   [Fun.protect] and allocates nothing. *)
let contains t k =
  Hashset_intf.check_key k;
  Mutex.lock t.lock;
  let present = List.mem k t.buckets.(k land t.mask) in
  Mutex.unlock t.lock;
  present

let bucket_count t = locked t (fun () -> t.mask + 1)

let resize_stats t =
  locked t (fun () ->
      { Hashset_intf.grows = t.grows; shrinks = t.shrinks })

let bucket_sizes t = locked t (fun () -> Array.map List.length t.buckets)

let force_resize t ~grow = locked t (fun () -> resize_locked t grow)
let cardinal t = locked t (fun () -> t.cardinal)

let elements t =
  locked t (fun () -> Array.of_list (List.concat (Array.to_list t.buckets)))

let fail fmt = Format.kasprintf failwith fmt

let check_invariants t =
  locked t (fun () ->
      let total = ref 0 in
      Array.iteri
        (fun i bucket ->
          total := !total + List.length bucket;
          List.iter
            (fun k ->
              if k land t.mask <> i then
                fail "key %d misplaced in bucket %d of %d" k i (t.mask + 1))
            bucket)
        t.buckets;
      if !total <> t.cardinal then
        fail "cardinal %d does not match contents %d" t.cardinal !total)

(* No announce array: nothing for the liveness watchdog to sample. *)
let pending_ops _ = [||]

(* Resizes happen atomically under the lock: no migration window. *)
let inspect t =
  Hashset_intf.make_view ~sizes:(bucket_sizes t) ~frozen_buckets:0
    ~migrating:false ~migration_progress:1.0 ~announce_pending:0
