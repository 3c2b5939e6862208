(* The benchmarked structures behind one driver signature, the seeded op streams
   the workloads feed them, and the output checks run after each window.

   An op is one int, [(arg lsl 2) lor kind], generated before timing
   starts; a worker only indexes its array. A result is one int too: the
   value a pop or dequeue returned ([-1] when it found the structure
   empty), 0/1 for set operations, 0 for pushes. *)

module Env = Lfrc_core.Env
module Rng = Lfrc_util.Rng

let op kind arg = (arg lsl 2) lor kind
let kind op = op land 3
let arg op = op lsr 2
let empty = -1

(* Pushed values: a seeded payload above the producer id and sequence
   number, so values are distinct and the FIFO check can decode who
   pushed what in which order. Producer 0 is the prefill. *)
let value rng ~producer ~seq =
  (Rng.int rng (1 lsl 19) lsl 40) lor (producer lsl 32) lor seq

let producer v = (v lsr 32) land 0xff
let seq v = v land 0xffff_ffff

module type S = sig
  type t
  type handle

  val create : Env.t -> t
  val register : t -> worker:int -> handle
  val unregister : handle -> unit
  val apply : handle -> int -> int

  val contents : handle -> int list
  (** Quiescent: pop everything left (in pop order), or list a set. *)

  val destroy : t -> unit
end

module type OPS = Lfrc_core.Ops_intf.OPS_DCAS

let rec drain pop acc =
  match pop () with Some v -> drain pop (v :: acc) | None -> List.rev acc

let of_option = function Some v -> v | None -> empty
let of_bool b = if b then 1 else 0

(* Stack and queue: kind 0 pushes [arg], kind 1 pops. *)
module Stack (O : OPS) : S = struct
  module S = Lfrc_structures.Treiber.Make (O)

  type t = S.t
  type handle = S.handle

  let create = S.create
  let register t ~worker:_ = S.register t
  let unregister = S.unregister

  let apply h op =
    if kind op = 0 then (S.push h (arg op); 0) else of_option (S.pop h)

  let contents h = drain (fun () -> S.pop h) []
  let destroy = S.destroy
end

module Queue (O : OPS) : S = struct
  module Q = Lfrc_structures.Msqueue.Make (O)

  type t = Q.t
  type handle = Q.handle

  let create = Q.create
  let register t ~worker:_ = Q.register t
  let unregister = Q.unregister

  let apply h op =
    if kind op = 0 then (Q.enqueue h (arg op); 0) else of_option (Q.dequeue h)

  let contents h = drain (fun () -> Q.dequeue h) []
  let destroy = Q.destroy
end

(* Set: kind 0 contains, 1 insert, 2 remove. Each handle's tower heights
   come from its own fixed seed, so runs are reproducible. *)
module Set (O : OPS) : S = struct
  module L = Lfrc_structures.Skiplist.Make (O)

  type t = L.t
  type handle = L.handle

  let create = L.create
  let register t ~worker = L.register ~seed:(0x5EED + worker) t
  let unregister = L.unregister

  let apply h op =
    let k = arg op in
    of_bool
      (match kind op with
      | 0 -> L.contains h k
      | 1 -> L.insert h k
      | _ -> L.remove h k)

  let contents = L.to_list
  let destroy = L.destroy
end

(* The DCAS list set, with the skip list's op encoding. *)
module Dlist (O : OPS) : S = struct
  module L = Lfrc_structures.Dlist_set.Make (O)

  type t = L.t
  type handle = L.handle

  let create = L.create
  let register t ~worker:_ = L.register t
  let unregister = L.unregister

  let apply h op =
    let k = arg op in
    of_bool
      (match kind op with
      | 0 -> L.contains h k
      | 1 -> L.insert h k
      | _ -> L.remove h k)

  let contents = L.to_list
  let destroy = L.destroy
end

(* Deque: kinds 0/1 push left/right, 2/3 pop left/right. *)
module Deque (O : OPS) : S = struct
  module D = Lfrc_structures.Snark_fixed.Make (O)

  type t = D.t
  type handle = D.handle

  let create = D.create
  let register t ~worker:_ = D.register t
  let unregister = D.unregister

  let apply h op =
    match kind op with
    | 0 -> D.push_left h (arg op); 0
    | 1 -> D.push_right h (arg op); 0
    | 2 -> of_option (D.pop_left h)
    | _ -> of_option (D.pop_right h)

  let contents h = drain (fun () -> D.pop_left h) []
  let destroy = D.destroy
end

(* What one workload feeds a driver and how its outputs are judged.
   [check] sees how many ops of each stream ran, their results, and the
   quiescent [contents] after the window. *)
type spec = {
  prefill : int array;
  streams : int array array;
  check :
    n_done:int array ->
    results:int array array ->
    contents:int list ->
    (string * bool) list;
}

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Value conservation as multisets: everything pushed (prefill included)
   was popped by a worker or is still in the structure. *)
let conservation ~is_push ~empty_ok (prefill : int array) streams ~n_done
    ~results ~contents =
  let pushed = ref [] and popped = ref contents and bad_empty = ref false in
  Array.iter (fun o -> if is_push o then pushed := arg o :: !pushed) prefill;
  Array.iteri
    (fun w (ops : int array) ->
      for i = 0 to n_done.(w) - 1 do
        if is_push ops.(i) then pushed := arg ops.(i) :: !pushed
        else
          let r = results.(w).(i) in
          if r = empty then (if not empty_ok then bad_empty := true)
          else popped := r :: !popped
      done)
    streams;
  [
    ("conservation", sorted !pushed = sorted !popped);
    ("no-pop-on-empty", not !bad_empty);
  ]

(* Per-producer FIFO: every consumer, the final drain included, sees each
   producer's values in push order. *)
let fifo streams ~n_done ~results ~contents =
  let ordered l =
    let last = Hashtbl.create 8 in
    List.for_all
      (fun v ->
        let p = producer v and s = seq v in
        let ok =
          match Hashtbl.find_opt last p with None -> true | Some s' -> s > s'
        in
        Hashtbl.replace last p s;
        ok)
      l
  in
  let dequeued w =
    List.filter_map
      (fun i ->
        let r = results.(w).(i) in
        if kind streams.(w).(i) = 1 && r <> empty then Some r else None)
      (List.init n_done.(w) Fun.id)
  in
  let workers_ok =
    List.for_all
      (fun w -> ordered (dequeued w))
      (List.init (Array.length streams) Fun.id)
  in
  [ ("per-producer-fifo", workers_ok && ordered contents) ]

let push_pop_streams ~seed ~workers ~len ~n_prefill =
  let rng = Rng.create seed in
  let prefill =
    Array.init n_prefill (fun i -> op 0 (value rng ~producer:0 ~seq:i))
  in
  let streams =
    Array.init workers (fun w ->
        let rng = Rng.split rng in
        Array.init len (fun i ->
            if i land 1 = 0 then op 0 (value rng ~producer:(w + 1) ~seq:i)
            else op 1 0))
  in
  (prefill, streams)

(* stack-churn: each worker alternates push and pop on a prefilled stack,
   so a pop never finds it empty. *)
let stack_churn ~seed ~workers ~len =
  let prefill, streams = push_pop_streams ~seed ~workers ~len ~n_prefill:1024 in
  let check ~n_done ~results ~contents =
    conservation ~is_push:(fun o -> kind o = 0) ~empty_ok:false prefill
      streams ~n_done ~results ~contents
  in
  { prefill; streams; check }

(* queue-deferred: each worker enqueues then dequeues on a prefilled
   queue. *)
let queue_pairs ~seed ~workers ~len =
  let prefill, streams = push_pop_streams ~seed ~workers ~len ~n_prefill:1024 in
  let check ~n_done ~results ~contents =
    conservation ~is_push:(fun o -> kind o = 0) ~empty_ok:false prefill
      streams ~n_done ~results ~contents
    @ fifo streams ~n_done ~results ~contents
  in
  { prefill; streams; check }

(* Set workloads: keys 1..range, half present after the prefill;
   [contains_pct]% contains over all keys, the rest split evenly between
   insert and remove over the worker's own keys (k mod workers = worker).
   Only the owner changes a key, so every result on an own key and the
   final contents are predictable. *)
let set_mix ~contains_pct ~seed ~workers ~len ~range =
  let insert_below = contains_pct + ((100 - contains_pct) / 2) in
  let rng = Rng.create seed in
  let keys = Array.init range (fun i -> i + 1) in
  Rng.shuffle rng keys;
  let prefill = Array.init (range / 2) (fun i -> op 1 keys.(i)) in
  let own =
    Array.init workers (fun w ->
        Array.of_list
          (List.filter (fun k -> k mod workers = w) (Array.to_list keys)))
  in
  let own_key rng w = Rng.pick rng own.(w) in
  let streams =
    Array.init workers (fun w ->
        let rng = Rng.split rng in
        Array.init len (fun _ ->
            let r = Rng.int rng 100 in
            if r < contains_pct then op 0 (1 + Rng.int rng range)
            else if r < insert_below then op 1 (own_key rng w)
            else op 2 (own_key rng w)))
  in
  let check ~n_done ~results ~contents =
    let present = Array.make (range + 1) false in
    Array.iter (fun o -> present.(arg o) <- true) prefill;
    let model_ok = ref true in
    Array.iteri
      (fun w (ops : int array) ->
        for i = 0 to n_done.(w) - 1 do
          let k = arg ops.(i) and r = results.(w).(i) = 1 in
          if k mod workers = w then begin
            let expect =
              match kind ops.(i) with
              | 0 -> present.(k)
              | 1 -> not present.(k)
              | _ -> present.(k)
            in
            if r <> expect then model_ok := false;
            match kind ops.(i) with
            | 1 -> present.(k) <- true
            | 2 -> present.(k) <- false
            | _ -> ()
          end
        done)
      streams;
    let expected =
      List.filter (fun k -> present.(k)) (List.init range (fun i -> i + 1))
    in
    [ ("set-model", !model_ok); ("set-final-contents", contents = expected) ]
  in
  { prefill; streams; check }

(* sim-deque-3mode: the balanced four-op mix of {!Lfrc_workload.Opmix} on
   a deque prefilled from both ends; pops may find it empty. *)
let deque_balanced ~seed ~workers ~len ~n_prefill =
  let rng = Rng.create seed in
  let prefill =
    Array.init n_prefill (fun i -> op (i land 1) (value rng ~producer:0 ~seq:i))
  in
  let streams =
    Array.init workers (fun w ->
        let rng = Rng.split rng in
        let kinds =
          Lfrc_workload.Opmix.(stream balanced_deque ~seed ~thread:w len)
        in
        Array.mapi
          (fun i (k : Lfrc_workload.Opmix.kind) ->
            match k with
            | Push_left -> op 0 (value rng ~producer:(w + 1) ~seq:i)
            | Push_right -> op 1 (value rng ~producer:(w + 1) ~seq:i)
            | Pop_left -> op 2 0
            | Pop_right -> op 3 0)
          kinds)
  in
  let check ~n_done ~results ~contents =
    conservation ~is_push:(fun o -> kind o < 2) ~empty_ok:true prefill
      streams ~n_done ~results ~contents
  in
  { prefill; streams; check }
