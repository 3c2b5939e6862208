module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Layout = Lfrc_simmem.Layout
module Dcas = Lfrc_atomics.Dcas
module Metrics = Lfrc_obs.Metrics
module Tracer = Lfrc_obs.Tracer
module Obs = Lfrc_obs.Obs
module Blame = Lfrc_obs.Blame
module Shadow = Lfrc_sanitize.Shadow

type ptr = Heap.ptr

let null = Heap.null

exception Symbolic_bypass of string

(* Under a symbolic (analysis) environment no real LFRC operation may run:
   structure code is being recorded through an {!Ops_intf.OPS} instance,
   and a direct call here means the code bypassed its functor argument.
   Raising identifies the offending operation to the analyser. *)
let guard env op = if Env.symbolic env then raise (Symbolic_bypass op)

(* Observability shims. Every public operation counts itself under an
   [lfrc.*] series and, when some sink reads op frames (tracer, profile,
   lineage, blame, sanitizer), opens a span on the {!Obs} spine that
   closes even on the exceptional (OOM) paths. The span name is the
   frame's label, so a count transition or a failed DCAS underneath
   always knows which operation it belongs to. With observability off
   each shim is a single branch — the policy {!Env.create} documents. *)

(* The retry loops hoist the obs-enabled check out of the loop: the
   retry *count* is staged in the loop's existing burst accumulator and
   recorded once after the loop ([Metrics.add] — totals identical to the
   per-retry [incr] they replace), and only the per-event sinks (tracer
   timeline, profiler frame charge) still run per retry — behind a single
   branch computed before the first attempt. With observability off a
   retry costs nothing at all. *)
let per_retry_obs env =
  let o = Env.obs env in
  Tracer.enabled o.tracer || Lfrc_obs.Profile.enabled o.profile

let record_retries env counter burst =
  if burst > 0 then Metrics.add (Env.metrics env) counter burst

let span env name f =
  let o = Env.obs env in
  Metrics.incr o.metrics name;
  if not o.framed then f ()
  else begin
    Obs.op_begin o name;
    Fun.protect ~finally:(fun () -> Obs.op_end o name) f
  end

(* add_to_rc (Figure 2, lines 16..20). The caller holds a counted
   reference, so the object cannot be freed while the loop runs. *)
let add_to_rc env p v =
  guard env "add_to_rc";
  let rc = Heap.rc_cell (Env.heap env) p in
  let d = Env.dcas env in
  Blame.bind_owner (Env.obs env).blame ~cell:(Cell.id rc) ~addr:p;
  let slow = per_retry_obs env in
  let rec go burst =
    let oldrc = Dcas.read d rc in
    if Dcas.cas d rc oldrc (oldrc + v) then begin
      record_retries env "lfrc.rc_retry" burst;
      (* Contended transitions record their retry burst; the quiet common
         case stays out of the histogram. *)
      if burst > 0 then
        Metrics.observe (Env.metrics env) "lfrc.rc_retry"
          (float_of_int burst);
      Obs.record_rc (Env.obs env) ~addr:p ~old_rc:oldrc ~delta:v;
      oldrc
    end
    else begin
      if slow then Obs.retry (Env.obs env) "lfrc.rc_retry";
      go (burst + 1)
    end
  in
  go 0

let alloc env layout =
  guard env "alloc";
  span env "lfrc.alloc" @@ fun () -> Heap.alloc (Env.heap env) layout

(* Allocation with graceful OOM: a simulated allocation failure surfaces as
   a result before any count or cell is touched, so the caller can abort
   its operation with the heap intact. *)
let try_alloc env layout =
  guard env "try_alloc";
  span env "lfrc.alloc" @@ fun () ->
  match Heap.alloc (Env.heap env) layout with
  | p -> Ok p
  | exception Heap.Simulated_oom ->
      Metrics.incr (Env.metrics env) "lfrc.alloc_oom";
      Obs.fault (Env.obs env) "oom";
      Error `Out_of_memory

(* Destroying the last pointer to an object frees it and destroys the
   pointers it contains. The count-delivery mode ({!Rc_mode.S}) decides
   how one reference is released and what a dying parent's child slot
   hands over; the three destroy policies are written once over it. *)

(* [counter] separates eager frees (destroy paths) from deferred-queue
   frees, the paper-§7 distinction the metrics surface. *)
let free_obj env counter p =
  Metrics.incr (Env.metrics env) counter;
  Heap.free (Env.heap env) p

(* The sanitizer learns that an object entered its destruction epoch at the
   zero-detect itself — atomically with the winning decrement, before any
   destroy-path read of the dead object's slots. *)
let released env p died =
  if died then Shadow.note_dying (Env.sanitizer env) p else Env.end_destroy env p;
  died

(* From the moment a destroy is committed to dropping a reference until the
   object is freed (or handed to the deferred queue), that reference exists
   only in OCaml locals — invisible to the heap. [Env.begin_destroy]
   republishes the object for the post-mortem fault auditor covering that
   whole span. Registry calls are mutex-only (no yield points), so no
   simulated crash can separate a reference from its registration. *)

(* Once an object's count reaches zero it is dead: only its destroyer ever
   reads its pointer slots again. All destroy paths therefore null each
   slot in the same atomic step that commits the child's drop (registry
   entry, parked delta, or work-list push) — so a dead parent's remaining
   non-null slots are exactly the drops not yet committed, and an adopter
   resuming a crashed destroy never double-drops a child. *)

(* Everything below assumes [p]'s pending drop is already in the destroy
   registry (placed by the caller, atomically with the CAS that committed
   the drop) and consumes that registration. The multi-drop sites (DCAS
   success drops two references) need this: both drops are registered
   atomically with the DCAS, so the second stays anchored while the first
   cascades. *)

(* Claim slot [i] of the dead object [q] for its teardown: register the
   child's drop and null the slot in one atomic step. A dead child outlives
   its parent's registration (the parent is freed first), so it gets its
   own. Returns the child (null for an empty slot). *)
let claim_slot env q i =
  let (module M) = Env.rc env in
  let cell = Heap.ptr_cell (Env.heap env) q i in
  let child = Dcas.read (Env.dcas env) cell in
  if child <> null then begin
    Env.begin_destroy env child;
    M.claim_child env ~cell child;
    Cell.set cell null
  end;
  child

(* Figure 2, lines 13..15: recursive destroy, faithful to the paper. *)
let rec destroy_recursive env p =
  let (module M) = Env.rc env in
  if M.release env p then begin
    for i = 0 to Heap.n_ptr_slots (Env.heap env) p - 1 do
      let child = claim_slot env p i in
      if child <> null then destroy_recursive env child
    done;
    free_obj env "lfrc.frees" p;
    Env.end_destroy env p
  end

(* Same semantics with an explicit work list: survives arbitrarily long
   chains of dead objects. [p] is dead (its count reached zero). *)
let teardown env p =
  let (module M) = Env.rc env in
  let work = ref [ p ] in
  while !work <> [] do
    match !work with
    | [] -> ()
    | q :: rest ->
        work := rest;
        for i = 0 to Heap.n_ptr_slots (Env.heap env) q - 1 do
          let child = claim_slot env q i in
          if child <> null && M.release env child then work := child :: !work
        done;
        free_obj env "lfrc.frees" q;
        Env.end_destroy env q
  done

(* Deferred policy: dead objects go to the environment's queue; each later
   LFRC operation frees a bounded number ([pump]), so no single operation
   pays for a long chain (paper §7, incremental collection). *)
let defer_dead env p =
  Obs.record (Env.obs env) ~addr:p Defer;
  Env.defer env p

let pump_deferred env ~budget =
  (* Keep draining until the budget is spent: processing a dead object can
     enqueue its children, and those count against the same slice. *)
  let (module M) = Env.rc env in
  let freed = ref 0 in
  let exhausted = ref false in
  while (not !exhausted) && (budget < 0 || !freed < budget) do
    match Env.pop_deferred env with
    | None -> exhausted := true
    | Some q ->
        (* The dequeue and this registration are atomic, so [q] is never
           anchored by neither the queue nor the registry. *)
        Env.begin_destroy env q;
        (* Destruction ownership hands off through the queue: the pumping
           thread re-owns the dying object so its teardown reads are not
           mistaken for third-party use-after-retire. *)
        Shadow.note_dying (Env.sanitizer env) q;
        incr freed;
        for i = 0 to Heap.n_ptr_slots (Env.heap env) q - 1 do
          let child = claim_slot env q i in
          if child <> null && M.release env child then begin
            defer_dead env child;
            Env.end_destroy env child
          end
        done;
        free_obj env "lfrc.deferred_frees" q;
        Env.end_destroy env q
  done;
  !freed

let commit_drop env p =
  let (module M) = Env.rc env in
  match Env.policy env with
  | Env.Recursive -> destroy_recursive env p
  | Env.Iterative -> if M.release env p then teardown env p
  | Env.Deferred { budget_per_op } ->
      if M.release env p then begin
        defer_dead env p;
        Env.end_destroy env p
      end;
      ignore (pump_deferred env ~budget:budget_per_op)

let destroy_registered env p =
  Metrics.incr (Env.metrics env) "lfrc.destroy";
  commit_drop env p

let destroy env p =
  guard env "destroy";
  span env "lfrc.destroy" @@ fun () ->
  let (module M) = Env.rc env in
  if p <> null then M.drop env p
  else
    match Env.policy env with
    | Env.Deferred { budget_per_op } ->
        ignore (pump_deferred env ~budget:budget_per_op)
    | Env.Recursive | Env.Iterative -> ()

let flush env =
  let (module M) = Env.rc env in
  let coalesced = M.flush env in
  coalesced + pump_deferred env ~budget:(-1)

let settle env =
  let (module M) = Env.rc env in
  ignore (M.flush env)

(* LFRCLoad (Figure 2, lines 1..12). *)
let load env ~src ~dest =
  guard env "load";
  span env "lfrc.load" @@ fun () ->
  let (module M) = Env.rc env in
  let d = Env.dcas env in
  let olddest = !dest in
  let slow = per_retry_obs env in
  let rec go burst =
    let a = Dcas.read d src in
    if a = null then begin
      dest := null;
      burst
    end
    else if M.borrow env ~src a then begin
      dest := a;
      burst
    end
    else begin
      let rc = Heap.rc_cell (Env.heap env) a in
      Blame.bind_owner (Env.obs env).blame ~cell:(Cell.id rc) ~addr:a;
      let r = Dcas.read d rc in
      (* Increment the count while atomically checking that [src] still
         points at [a]: the object cannot have been freed and recycled
         under us if the pointer still exists. *)
      if Dcas.dcas d src rc ~old0:a ~old1:r ~new0:a ~new1:(r + M.load_weight)
      then begin
        M.loaded env ~src a;
        Obs.record_rc (Env.obs env) ~addr:a ~old_rc:r ~delta:M.load_weight;
        dest := a;
        burst
      end
      else begin
        if slow then Obs.retry (Env.obs env) "lfrc.load_retry";
        go (burst + 1)
      end
    end
  in
  let burst = go 0 in
  record_retries env "lfrc.load_retry" burst;
  (* Every load contributes its burst — zeros included — so the retry
     histogram is populated even in uncontended runs. *)
  Metrics.observe (Env.metrics env) "lfrc.load.retries" (float_of_int burst);
  destroy env olddest

(* Figure 2, lines 23..27: CAS [v] into [dst] over whatever it holds,
   retrying on interference, and return the displaced pointer. Nothing
   between the winning CAS and the caller's bookkeeping yields, so that
   bookkeeping rides the CAS's atomic step. *)
let swap_in env ~dst v ~observe =
  let slow = per_retry_obs env in
  let rec go burst =
    let d = Env.dcas env in
    let oldval = Dcas.read d dst in
    if Dcas.cas d dst oldval v then begin
      record_retries env "lfrc.store_retry" burst;
      if observe then
        Metrics.observe (Env.metrics env) "lfrc.store.retries"
          (float_of_int burst);
      oldval
    end
    else begin
      if slow then Obs.retry (Env.obs env) "lfrc.store_retry";
      go (burst + 1)
    end
  in
  go 0

(* LFRCStore (Figure 2, lines 21..28). *)
let store env ~dst v =
  guard env "store";
  span env "lfrc.store" @@ fun () ->
  let (module M) = Env.rc env in
  M.publish env v;
  let oldv = swap_in env ~dst v ~observe:true in
  (* The winning CAS made the raise heap-justified; ending the publication
     is atomic with it. *)
  Env.end_publish env v;
  M.installed env ~cell:dst ~oldv ~newv:v ~owned:false

(* LFRCStoreAlloc (paper Figure 1, line 35): consume the allocation's
   count instead of raising it. The source is a (registered-local) ref,
   cleared in the same atomic step as the winning CAS, so the count has
   exactly one owner — the local or the heap slot — at every yield point. *)
let store_alloc_from env ~dst r =
  guard env "store_alloc";
  span env "lfrc.store_alloc" @@ fun () ->
  let (module M) = Env.rc env in
  let v = !r in
  let oldv = swap_in env ~dst v ~observe:false in
  r := null;
  M.installed env ~cell:dst ~oldv ~newv:v ~owned:true

let store_alloc env ~dst v = store_alloc_from env ~dst (ref v)

(* LFRCCopy (Figure 2, lines 29..32). *)
let copy env ~dest w =
  guard env "copy";
  span env "lfrc.copy" @@ fun () ->
  let (module M) = Env.rc env in
  M.acquire env w;
  let old = !dest in
  dest := w;
  (* A raise that could yield before [dest] held [w] rode the publication
     registry until this assignment. *)
  Env.end_publish env w;
  destroy env old

(* LFRCDCAS (Figure 2, lines 33..39). *)
let dcas env c0 c1 ~old0 ~old1 ~new0 ~new1 =
  guard env "dcas";
  span env "lfrc.dcas" @@ fun () ->
  let (module M) = Env.rc env in
  M.publish env new0;
  M.publish env new1;
  if Dcas.dcas (Env.dcas env) c0 c1 ~old0 ~old1 ~new0 ~new1 then begin
    Env.end_publish env new0;
    Env.end_publish env new1;
    (* Register BOTH committed drops atomically with the DCAS, then commit
       them one at a time: the second stays anchored while the first's
       cascade yields. *)
    M.claim env ~cell:c0 ~oldv:old0 ~newv:new0;
    M.claim env ~cell:c1 ~oldv:old1 ~newv:new1;
    if old0 <> null then destroy_registered env old0;
    if old1 <> null then destroy_registered env old1;
    true
  end
  else begin
    (* Resolve one publication at a time: [new1] stays registered across
       [new0]'s give-back (which can yield), so a crash inside it never
       leaves [new1]'s speculative raise unanchored. *)
    Env.end_publish env new0;
    M.give_back env new0;
    Env.end_publish env new1;
    M.give_back env new1;
    false
  end

(* Resolve a single-cell publishing CAS on [cell] that tried to replace
   [oldv] by the published [newv]. *)
let resolve env ~cell ~oldv ~newv won =
  let (module M) = Env.rc env in
  Env.end_publish env newv;
  if won then M.installed env ~cell ~oldv ~newv ~owned:false
  else M.give_back env newv;
  won

(* LFRCCAS: the paper's "obvious simplification" of LFRCDCAS. *)
let cas env c ~old_ptr ~new_ptr =
  guard env "cas";
  span env "lfrc.cas" @@ fun () ->
  let (module M) = Env.rc env in
  M.publish env new_ptr;
  resolve env ~cell:c ~oldv:old_ptr ~newv:new_ptr
    (Dcas.cas (Env.dcas env) c old_ptr new_ptr)

(* Extension: DCAS over one pointer cell and one plain-value cell.
   Reference counting applies to the pointer side only. *)
let dcas_ptr_val env ~ptr_cell ~val_cell ~old_ptr ~new_ptr ~old_val ~new_val =
  guard env "dcas_ptr_val";
  span env "lfrc.dcas_ptr_val" @@ fun () ->
  let (module M) = Env.rc env in
  M.publish env new_ptr;
  resolve env ~cell:ptr_cell ~oldv:old_ptr ~newv:new_ptr
    (Dcas.dcas (Env.dcas env) ptr_cell val_cell ~old0:old_ptr ~old1:old_val
       ~new0:new_ptr ~new1:new_val)

(* Finish a destroy whose owner crashed after taking the count to zero
   (used by crash recovery). Under the slot-nulling discipline every
   committed child drop also nulled its slot, so the husk's remaining
   non-null slots are exactly the drops never committed: perform each
   one, then free the husk. *)
let finish_teardown env p =
  let (module M) = Env.rc env in
  let heap = Env.heap env in
  for i = 0 to Heap.n_ptr_slots heap p - 1 do
    let cell = Heap.ptr_cell heap p i in
    let child = Cell.get cell in
    if child <> null then M.orphan env ~cell child
  done;
  free_obj env "lfrc.frees" p

let with_locals env n f =
  let locals = Array.init n (fun _ -> ref null) in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun r -> destroy env !r) locals)
    (fun () -> f locals)

let read_ptr env c = Dcas.read (Env.dcas env) c
