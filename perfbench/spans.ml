(* Span buffers for the traced run.

   Every worker (real domain or simulated thread) owns one buffer,
   preallocated before the timed window. A span is one entry: the OPS call
   kind (or [op_kind] for a structure operation), start and end on the
   monotonic clock, the index of the enclosing structure-op span and the
   op id. A buffer records only while armed, which the worker does for the
   timed window alone. When a buffer fills, and when the window ends, its
   spans are folded into per-kind sums; the fold runs on the worker, so its
   cost is part of the measured tracing overhead. *)

let k_load = 0
let k_store = 1
let k_alloc = 2
let k_destroy = 3
let k_copy = 4
let k_cas = 5
let k_dcas = 6
let k_flush = 7
let k_val = 8

let names =
  [|
    "load"; "store"; "alloc"; "destroy"; "copy"; "cas"; "dcas"; "flush"; "val";
  |]

let n_kinds = Array.length names
let op_kind = -1

type buf = {
  mutable armed : bool;
  kind : int array;
  start : int array;
  stop : int array;
  parent : int array;
  op_id : int array;
  mutable len : int;
  mutable open_op : int;  (** index of the open structure-op span, or -1 *)
  calls : int array;
  ns : int array;
  ok : int array;  (** successful cas/dcas calls *)
  mutable ops : int;
  mutable op_ns : int;
  mutable child_ns : int;  (** OPS time inside structure ops *)
}

let create ?(capacity = 1 lsl 16) () =
  {
    armed = false;
    kind = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    parent = Array.make capacity (-1);
    op_id = Array.make capacity 0;
    len = 0;
    open_op = -1;
    calls = Array.make n_kinds 0;
    ns = Array.make n_kinds 0;
    ok = Array.make n_kinds 0;
    ops = 0;
    op_ns = 0;
    child_ns = 0;
  }

let fold b =
  for i = 0 to b.len - 1 do
    if i <> b.open_op then begin
      let d = b.stop.(i) - b.start.(i) in
      let k = b.kind.(i) in
      if k = op_kind then begin
        b.ops <- b.ops + 1;
        b.op_ns <- b.op_ns + d
      end
      else begin
        b.calls.(k) <- b.calls.(k) + 1;
        b.ns.(k) <- b.ns.(k) + d;
        if b.parent.(i) >= 0 then b.child_ns <- b.child_ns + d
      end
    end
  done;
  if b.open_op >= 0 then begin
    let j = b.open_op in
    b.kind.(0) <- b.kind.(j);
    b.start.(0) <- b.start.(j);
    b.parent.(0) <- -1;
    b.op_id.(0) <- b.op_id.(j);
    b.open_op <- 0;
    b.len <- 1
  end
  else b.len <- 0

let push b k ~t0 ~t1 =
  if b.len = Array.length b.kind then fold b;
  let i = b.len in
  b.kind.(i) <- k;
  b.start.(i) <- t0;
  b.stop.(i) <- t1;
  b.parent.(i) <- b.open_op;
  b.op_id.(i) <- (if b.open_op >= 0 then b.op_id.(b.open_op) else -1);
  b.len <- i + 1

(* Child spans: [enter] before the OPS call, [leave] after it. *)
let enter b = if b.armed then Bclock.now_ns () else 0

let leave b k t0 = if b.armed then push b k ~t0 ~t1:(Bclock.now_ns ())

let leave_ok b k t0 ok =
  if b.armed then begin
    push b k ~t0 ~t1:(Bclock.now_ns ());
    if ok then b.ok.(k) <- b.ok.(k) + 1
  end;
  ok

(* Structure-op spans, opened and closed by the worker loop with the
   timestamps it takes for the op's latency anyway. *)
let op_begin b ~id ~t0 =
  if b.armed then begin
    if b.len = Array.length b.kind then fold b;
    let i = b.len in
    b.kind.(i) <- op_kind;
    b.start.(i) <- t0;
    b.parent.(i) <- -1;
    b.op_id.(i) <- id;
    b.open_op <- i;
    b.len <- i + 1
  end

let op_end b ~t1 =
  if b.armed then begin
    b.stop.(b.open_op) <- t1;
    b.open_op <- -1
  end

let arm b = b.armed <- true

let disarm b =
  fold b;
  b.armed <- false

(* Which buffer a new OPS context records into. Simulated threads all run
   on one domain, so they are told apart by scheduler thread id; real
   workers install their buffer in domain-local storage. Anything else
   (the main thread, structure create/destroy) gets [dummy], which is
   never armed. *)
let dummy = create ~capacity:0 ()
let sim_bufs : buf array ref = ref [||]
let dls_key = Domain.DLS.new_key (fun () -> dummy)
let set_domain_buf b = Domain.DLS.set dls_key b

let current () =
  if Lfrc_sched.Sched.active () then
    let a = !sim_bufs and i = Lfrc_sched.Sched.tid () in
    if i < Array.length a then a.(i) else dummy
  else Domain.DLS.get dls_key

(* Sums over several buffers' folded spans. *)
type totals = {
  t_calls : int array;
  t_ns : int array;
  t_ok : int array;
  t_ops : int;
  t_op_ns : int;
  t_child_ns : int;
}

let sum_totals ts =
  let sum f = List.fold_left (fun a t -> a + f t) 0 ts in
  let sum_k f = Array.init n_kinds (fun k -> sum (fun t -> (f t).(k))) in
  {
    t_calls = sum_k (fun t -> t.t_calls);
    t_ns = sum_k (fun t -> t.t_ns);
    t_ok = sum_k (fun t -> t.t_ok);
    t_ops = sum (fun t -> t.t_ops);
    t_op_ns = sum (fun t -> t.t_op_ns);
    t_child_ns = sum (fun t -> t.t_child_ns);
  }

let totals bufs =
  sum_totals
    (List.map
       (fun b ->
         {
           t_calls = b.calls;
           t_ns = b.ns;
           t_ok = b.ok;
           t_ops = b.ops;
           t_op_ns = b.op_ns;
           t_child_ns = b.child_ns;
         })
       bufs)
