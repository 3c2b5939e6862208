type policy =
  | Recursive
  | Iterative
  | Deferred of { budget_per_op : int }

(* Count-update mode: eager Figure-2 CASes, deferred-rc coalescing with a
   parked-adjustment budget, or wait-free weighted (split) counts where
   the count word holds total weight and the hot path is a single
   fetch-and-add. The environment stores the resolved knobs (epoch 0 =
   not deferred, weight 0 = not weighted) — the variant exists so callers
   say what they mean instead of passing magic integers. *)
type rc_mode =
  | Eager
  | Deferred_rc of { epoch : int }
  | Wait_free of { weight : int }

let rc_mode_of_epoch n = if n > 0 then Deferred_rc { epoch = n } else Eager

(* A registered thread-local pointer frame. [fr_view] reads the current
   locals non-destructively (auditor anchors); [fr_take] surrenders them —
   reads and clears — so a recovery pass can adopt a crashed owner's
   references exactly once. *)
type frame = {
  fr_id : int;
  fr_tid : int;
  fr_view : unit -> int list;
  fr_take : unit -> int list;
}

(* A thread's in-flight references that the heap cannot see, published
   for the post-mortem fault auditor. Deliberately NOT heap frames: heap
   frames feed the tracing collectors and invariant checkers, whose
   semantics must not change under LFRC.
   - [destroying]: objects a destroy is in the middle of tearing down.
     The reference being dropped is held only in OCaml locals, so a crash
     of the destroying thread would otherwise leave it unaccounted.
   - [publishing]: speculative count increments (address, weight) not yet
     justified by a heap-visible pointer. store/cas/dcas raise the new
     pointer's count before the publishing CAS, and a crash in between
     leaves an increment no destroy will ever compensate.
   One record per thread, so recovery can adopt exactly a crashed
   thread's entries. Only the owner writes its record, without a lock:
   the LFRC hot path takes no shared lock for this bookkeeping. Readers
   (the auditor, recovery) look only at quiescence or under the
   simulator. *)
type owner = {
  mutable destroying : int list;
  mutable publishing : (int * int) list;
}

type t = {
  env_heap : Lfrc_simmem.Heap.t;
  env_dcas : Lfrc_atomics.Dcas.t;
  env_policy : policy;
  pending : int Queue.t;
  pending_lock : Mutex.t;
  (* Per-thread crash bookkeeping (see [owner]), one record per thread
     identity, written only by its owner. *)
  owners : owner Lfrc_sched.Owned.t;
  (* Thread-local pointer variables published for the same auditor (their
     heap-frame analogue, kept off the heap for the same reason). Each
     frame records its owning thread and a [take] closure that surrenders
     the locals, so recovery can adopt a crashed thread's references. *)
  mutable local_frames : frame list;
  mutable local_frame_ctr : int;
  local_frames_lock : Mutex.t;
  (* Recovery hooks: reclamation baselines (EBR/HP) register a closure at
     create time that evicts crashed threads' pinned epochs / hazard slots.
     The registry lives here — not in the fault layer — so the reclaim
     library needs no dependency on faults and vice versa. *)
  mutable recover_hooks : (crashed:int list -> int) list;
  (* Deferred-rc coalescing (PPoPP-2022-style batched count updates):
     per-thread buffers of parked ±1 count adjustments, keyed by thread
     identity ([Sched.self]) then by address, netted in place. The buffers
     live in the environment — not in thread-locals — so a crashed
     thread's parked deltas survive it and a later flush still applies
     them; until then the parked addresses are republished through
     [anchors] for the fault auditor. *)
  env_rc_epoch : int;
  rc_buffers : (int, (int, int) Hashtbl.t) Hashtbl.t;
  rc_lock : Mutex.t;
  mutable rc_park_ops : int;  (* park events since the last drain *)
  mutable rc_in_flush : bool;
  mutable rc_flush_tid : int;  (* owner of the flush flag, while held *)
  (* Deltas the in-progress flush has drained but not yet applied; keeping
     them here (not in the flusher's OCaml locals) means a crashed flusher
     loses nothing — recovery re-parks them and a later flush lands them. *)
  rc_applying : (int, int) Hashtbl.t;
  (* Wait-free weighted rc (Blelloch–Wei-style split counts): the count
     word holds the object's *total weight* — the sum of the weights
     carried by every live reference. [wf_pools] is the per-thread weight
     pouch: addr -> (pooled weight w, covered refs n), the side-table
     stand-in for the weight bits a real implementation packs into each
     local pointer word (invariant w >= n >= 1; refs with no entry carry
     implicit weight 1). [wf_slots] plays the same role for heap pointer
     slots, keyed by cell id (absent = weight 1); entries are removed in
     the same atomic step that nulls or overwrites the slot, so recycled
     cell ids can never inherit stale weight. All operations are
     mutex-only — atomic under the simulator. *)
  env_wf_weight : int;  (* batch weight; 0 = wait-free mode off *)
  wf_pools : (int, (int, int * int) Hashtbl.t) Hashtbl.t;
  wf_slots : (int, int) Hashtbl.t;
  wf_lock : Mutex.t;
  env_gc_threshold : int;
  mutable env_incremental : (Lfrc_simmem.Gc_incr.t * int) option;
  env_metrics : Lfrc_obs.Metrics.t;
  env_tracer : Lfrc_obs.Tracer.t;
  env_lineage : Lfrc_obs.Lineage.t;
  env_profile : Lfrc_obs.Profile.t;
  env_blame : Lfrc_obs.Blame.t;
  env_sanitizer : Lfrc_sanitize.Shadow.t;
  env_symbolic : bool;
}

let create ?dcas_impl ?(policy = Iterative) ?(rc_mode = Eager)
    ?(gc_threshold = 0)
    ?(metrics = Lfrc_obs.Metrics.disabled) ?(tracer = Lfrc_obs.Tracer.disabled)
    ?(lineage = Lfrc_obs.Lineage.disabled)
    ?(profile = Lfrc_obs.Profile.disabled)
    ?(blame = Lfrc_obs.Blame.disabled)
    ?(sanitize = Lfrc_sanitize.Shadow.disabled) ?(symbolic = false) heap =
  let rc_epoch, wf_weight =
    match rc_mode with
    | Eager -> (0, 0)
    | Deferred_rc { epoch } -> (max 1 epoch, 0)
    | Wait_free { weight } -> (0, max 2 weight)
  in
  let impl =
    match dcas_impl with
    | Some i -> i
    | None ->
        if Lfrc_sched.Sched.active () then Lfrc_atomics.Dcas.Atomic_step
        else Lfrc_atomics.Dcas.Striped_lock
  in
  let d = Lfrc_atomics.Dcas.create impl in
  (* A blame registry may outlive several environments; cell ids restart
     per heap, so stale stamps must be dropped before they can be blamed
     for this run's failures. *)
  Lfrc_obs.Blame.new_run blame;
  Lfrc_atomics.Dcas.attach_obs ~profile ~blame d ~metrics ~tracer;
  Lfrc_sanitize.Shadow.attach sanitize ~heap ~metrics ~tracer ~profile;
  Lfrc_atomics.Dcas.attach_sanitizer d sanitize;
  let obs_on =
    Lfrc_obs.Metrics.enabled metrics
    || Lfrc_obs.Tracer.enabled tracer
    || Lfrc_obs.Lineage.enabled lineage
  in
  let san_on = Lfrc_sanitize.Shadow.enabled sanitize in
  if obs_on || san_on then
    Lfrc_simmem.Heap.set_observer heap
      (Some
         (fun ev ->
           if obs_on then
             (match ev with
             | Lfrc_simmem.Heap.Obs_alloc { p; gen; live } ->
                 Lfrc_obs.Metrics.incr metrics "heap.allocs";
                 Lfrc_obs.Metrics.set_gauge metrics "heap.live" live;
                 Lfrc_obs.Lineage.record lineage ~addr:p
                   (Lfrc_obs.Lineage.Alloc { gen })
             | Lfrc_simmem.Heap.Obs_free { p; gen; live } ->
                 Lfrc_obs.Metrics.incr metrics "heap.frees";
                 Lfrc_obs.Metrics.set_gauge metrics "heap.live" live;
                 Lfrc_obs.Tracer.emit tracer ~arg:p Free "free";
                 Lfrc_obs.Lineage.record lineage ~addr:p
                   (Lfrc_obs.Lineage.Free { gen }));
           Lfrc_sanitize.Shadow.on_heap_event sanitize ev));
  {
    env_heap = heap;
    env_dcas = d;
    env_policy = policy;
    pending = Queue.create ();
    pending_lock = Mutex.create ();
    owners =
      Lfrc_sched.Owned.create (fun () -> { destroying = []; publishing = [] });
    local_frames = [];
    local_frame_ctr = 0;
    local_frames_lock = Mutex.create ();
    recover_hooks = [];
    env_rc_epoch = rc_epoch;
    rc_buffers = Hashtbl.create 8;
    rc_lock = Mutex.create ();
    rc_park_ops = 0;
    rc_in_flush = false;
    rc_flush_tid = -1;
    rc_applying = Hashtbl.create 32;
    env_wf_weight = wf_weight;
    wf_pools = Hashtbl.create 8;
    wf_slots = Hashtbl.create 64;
    wf_lock = Mutex.create ();
    env_gc_threshold = gc_threshold;
    env_incremental = None;
    env_metrics = metrics;
    env_tracer = tracer;
    env_lineage = lineage;
    env_profile = profile;
    env_blame = blame;
    env_sanitizer = sanitize;
    env_symbolic = symbolic;
  }

let heap t = t.env_heap
let dcas t = t.env_dcas
let symbolic t = t.env_symbolic
let policy t = t.env_policy
let gc_threshold t = t.env_gc_threshold
let metrics t = t.env_metrics
let tracer t = t.env_tracer
let lineage t = t.env_lineage
let profile t = t.env_profile
let blame t = t.env_blame
let sanitizer t = t.env_sanitizer

let set_incremental t ~collector ~budget =
  t.env_incremental <- Some (collector, budget)

let incremental t = t.env_incremental

let defer t p =
  Mutex.lock t.pending_lock;
  Queue.add p t.pending;
  let depth = Queue.length t.pending in
  Mutex.unlock t.pending_lock;
  Lfrc_obs.Metrics.incr t.env_metrics "lfrc.deferred";
  Lfrc_obs.Metrics.set_gauge t.env_metrics "lfrc.deferred_depth" depth

let drain_deferred t ~max =
  Mutex.lock t.pending_lock;
  let rec go n acc =
    if (max >= 0 && n >= max) || Queue.is_empty t.pending then List.rev acc
    else go (n + 1) (Queue.pop t.pending :: acc)
  in
  let out = go 0 [] in
  let depth = Queue.length t.pending in
  Mutex.unlock t.pending_lock;
  if out <> [] then
    Lfrc_obs.Metrics.set_gauge t.env_metrics "lfrc.deferred_depth" depth;
  out

let deferred_pending t =
  Mutex.lock t.pending_lock;
  let n = Queue.length t.pending in
  Mutex.unlock t.pending_lock;
  n

(* --- deferred-rc buffers ---

   All buffer operations are mutex-only (no scheduler yield points), so in
   a simulation each is atomic with respect to interleaving: a parked delta
   is either fully visible to a concurrent drain/steal or not parked yet,
   never half-recorded. *)

let rc_mode t =
  if t.env_wf_weight > 0 then Wait_free { weight = t.env_wf_weight }
  else rc_mode_of_epoch t.env_rc_epoch

let rc_epoch t = t.env_rc_epoch
let rc_deferred t = t.env_rc_epoch > 0
let wf_on t = t.env_wf_weight > 0
let wf_weight t = t.env_wf_weight

let rc_park t ~addr ~delta =
  let tid = Lfrc_sched.Sched.self () in
  Mutex.lock t.rc_lock;
  let buf =
    match Hashtbl.find_opt t.rc_buffers tid with
    | Some b -> b
    | None ->
        let b = Hashtbl.create 16 in
        Hashtbl.add t.rc_buffers tid b;
        b
  in
  let net = (match Hashtbl.find_opt buf addr with Some v -> v | None -> 0) + delta in
  (* A +1 and a -1 on the same address cancel right here, without ever
     touching the heap count — the coalescing fast path. *)
  if net = 0 then Hashtbl.remove buf addr else Hashtbl.replace buf addr net;
  t.rc_park_ops <- t.rc_park_ops + 1;
  let parked = t.rc_park_ops in
  Mutex.unlock t.rc_lock;
  parked

let rc_drain_all t =
  Mutex.lock t.rc_lock;
  let agg = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _tid buf ->
      Hashtbl.iter
        (fun addr v ->
          let prev =
            match Hashtbl.find_opt agg addr with Some p -> p | None -> 0
          in
          Hashtbl.replace agg addr (prev + v))
        buf)
    t.rc_buffers;
  Hashtbl.reset t.rc_buffers;
  t.rc_park_ops <- 0;
  Mutex.unlock t.rc_lock;
  Hashtbl.fold (fun addr v acc -> if v = 0 then acc else (addr, v) :: acc) agg []

let rc_steal t ~addr =
  Mutex.lock t.rc_lock;
  let stolen = ref 0 in
  Hashtbl.iter
    (fun _tid buf ->
      match Hashtbl.find_opt buf addr with
      | Some v ->
          stolen := !stolen + v;
          Hashtbl.remove buf addr
      | None -> ())
    t.rc_buffers;
  Mutex.unlock t.rc_lock;
  !stolen

let rc_parked t =
  Mutex.lock t.rc_lock;
  let addrs =
    Hashtbl.fold
      (fun _tid buf acc ->
        Hashtbl.fold (fun addr _ acc -> addr :: acc) buf acc)
      t.rc_buffers []
  in
  Mutex.unlock t.rc_lock;
  addrs

let rc_try_begin_flush t =
  Mutex.lock t.rc_lock;
  let won = not t.rc_in_flush in
  if won then begin
    t.rc_in_flush <- true;
    t.rc_flush_tid <- Lfrc_sched.Sched.self ()
  end;
  Mutex.unlock t.rc_lock;
  won

let rc_end_flush t =
  Mutex.lock t.rc_lock;
  t.rc_in_flush <- false;
  t.rc_flush_tid <- -1;
  Mutex.unlock t.rc_lock

(* --- crash-safe flush staging ---

   A flush drains parked deltas into [rc_applying] (atomically, under the
   same lock) and removes each entry only once its heap effect has landed.
   The table — not the flusher's OCaml locals — is the authoritative record
   of drained-but-unapplied deltas, so a flusher that crashes mid-apply
   loses nothing: [rc_recover_flush] re-parks the leftovers and releases
   the flush flag, and the next flush lands them. *)

let rc_drain_into_applying t =
  Mutex.lock t.rc_lock;
  let had = t.rc_park_ops > 0 || Hashtbl.length t.rc_buffers > 0 in
  Hashtbl.iter
    (fun _tid buf ->
      Hashtbl.iter
        (fun addr v ->
          let prev =
            match Hashtbl.find_opt t.rc_applying addr with
            | Some p -> p
            | None -> 0
          in
          let net = prev + v in
          if net = 0 then Hashtbl.remove t.rc_applying addr
          else Hashtbl.replace t.rc_applying addr net)
        buf)
    t.rc_buffers;
  Hashtbl.reset t.rc_buffers;
  t.rc_park_ops <- 0;
  Mutex.unlock t.rc_lock;
  had

let rc_applying_snapshot t =
  Mutex.lock t.rc_lock;
  let l = Hashtbl.fold (fun addr v acc -> (addr, v) :: acc) t.rc_applying [] in
  Mutex.unlock t.rc_lock;
  l

(* Steal any parked delta for [addr] from the per-thread buffers AND the
   applying table, returning the net. Used by the zero-detect path so a
   concurrent flush's staged delta cannot resurrect or double-free. *)
let rc_absorb t ~addr =
  Mutex.lock t.rc_lock;
  let stolen = ref 0 in
  Hashtbl.iter
    (fun _tid buf ->
      match Hashtbl.find_opt buf addr with
      | Some v ->
          stolen := !stolen + v;
          Hashtbl.remove buf addr
      | None -> ())
    t.rc_buffers;
  (match Hashtbl.find_opt t.rc_applying addr with
  | Some v ->
      stolen := !stolen + v;
      Hashtbl.remove t.rc_applying addr
  | None -> ());
  Mutex.unlock t.rc_lock;
  !stolen

let rc_apply_done t ~addr =
  Mutex.lock t.rc_lock;
  Hashtbl.remove t.rc_applying addr;
  Mutex.unlock t.rc_lock

(* Fold any freshly parked deltas for [addr] into its staged entry and
   return the staged net. The entry stays staged — the caller unstages
   with [rc_apply_done] once the heap CAS lands — so a crash in between
   loses nothing. *)
let rc_restage t ~addr =
  Mutex.lock t.rc_lock;
  let net =
    ref
      (match Hashtbl.find_opt t.rc_applying addr with Some v -> v | None -> 0)
  in
  Hashtbl.iter
    (fun _tid buf ->
      match Hashtbl.find_opt buf addr with
      | Some v ->
          net := !net + v;
          Hashtbl.remove buf addr
      | None -> ())
    t.rc_buffers;
  if !net = 0 then Hashtbl.remove t.rc_applying addr
  else Hashtbl.replace t.rc_applying addr !net;
  Mutex.unlock t.rc_lock;
  !net

(* If (and only if) the thread holding the flush flag crashed, re-park its
   drained-but-unapplied deltas and release the flag. A live flusher always
   clears both itself (Fun.protect), so a stuck flag implies a dead owner.
   Returns the number of re-parked deltas. *)
let rc_recover_flush t ~crashed =
  Mutex.lock t.rc_lock;
  let n = ref 0 in
  if t.rc_in_flush && List.mem t.rc_flush_tid crashed then begin
    let buf =
      match Hashtbl.find_opt t.rc_buffers t.rc_flush_tid with
      | Some b -> b
      | None ->
          let b = Hashtbl.create 16 in
          Hashtbl.add t.rc_buffers t.rc_flush_tid b;
          b
    in
    Hashtbl.iter
      (fun addr v ->
        incr n;
        let prev =
          match Hashtbl.find_opt buf addr with Some p -> p | None -> 0
        in
        let net = prev + v in
        if net = 0 then Hashtbl.remove buf addr
        else Hashtbl.replace buf addr net)
      t.rc_applying;
    Hashtbl.reset t.rc_applying;
    if !n > 0 then t.rc_park_ops <- t.rc_park_ops + !n;
    t.rc_in_flush <- false;
    t.rc_flush_tid <- -1
  end;
  Mutex.unlock t.rc_lock;
  !n

let rc_parked_of t ~tids =
  Mutex.lock t.rc_lock;
  let n = ref 0 in
  List.iter
    (fun tid ->
      match Hashtbl.find_opt t.rc_buffers tid with
      | Some buf -> n := !n + Hashtbl.length buf
      | None -> ())
    tids;
  Mutex.unlock t.rc_lock;
  !n

(* --- wait-free weighted-rc side tables ---

   Mutex-only, like the rc buffers above: each operation is atomic with
   respect to simulated interleaving, which is exactly the atomicity a
   real implementation gets from packing the weight bits into the pointer
   word it updates with one RMW. *)

let wf_pool_of t tid =
  match Hashtbl.find_opt t.wf_pools tid with
  | Some p -> p
  | None ->
      let p = Hashtbl.create 16 in
      Hashtbl.add t.wf_pools tid p;
      p

let wf_pool_add t ~addr ~w ~n =
  let tid = Lfrc_sched.Sched.self () in
  Mutex.lock t.wf_lock;
  let pool = wf_pool_of t tid in
  (match Hashtbl.find_opt pool addr with
  | Some (w0, n0) -> Hashtbl.replace pool addr (w0 + w, n0 + n)
  | None -> Hashtbl.add pool addr (w, n));
  Mutex.unlock t.wf_lock

let wf_pool_try_share t ~addr =
  let tid = Lfrc_sched.Sched.self () in
  Mutex.lock t.wf_lock;
  let ok =
    match Hashtbl.find_opt (wf_pool_of t tid) addr with
    | Some (w, n) when w > n ->
        Hashtbl.replace (wf_pool_of t tid) addr (w, n + 1);
        true
    | _ -> false
  in
  Mutex.unlock t.wf_lock;
  ok

let wf_pool_try_drop_shared t ~addr =
  let tid = Lfrc_sched.Sched.self () in
  Mutex.lock t.wf_lock;
  let ok =
    match Hashtbl.find_opt (wf_pool_of t tid) addr with
    | Some (w, n) when n > 1 ->
        Hashtbl.replace (wf_pool_of t tid) addr (w, n - 1);
        true
    | _ -> false
  in
  Mutex.unlock t.wf_lock;
  ok

let wf_pool_weight t ~addr =
  let tid = Lfrc_sched.Sched.self () in
  Mutex.lock t.wf_lock;
  let w =
    match Hashtbl.find_opt (wf_pool_of t tid) addr with
    | Some (w, _) -> w
    | None -> 1
  in
  Mutex.unlock t.wf_lock;
  w

let wf_pool_remove t ~addr =
  let tid = Lfrc_sched.Sched.self () in
  Mutex.lock t.wf_lock;
  Hashtbl.remove (wf_pool_of t tid) addr;
  Mutex.unlock t.wf_lock

let wf_pool_give t ~addr ~w =
  let tid = Lfrc_sched.Sched.self () in
  Mutex.lock t.wf_lock;
  let ok =
    match Hashtbl.find_opt (wf_pool_of t tid) addr with
    | Some (w0, n0) ->
        Hashtbl.replace (wf_pool_of t tid) addr (w0 + w, n0);
        true
    | None -> false
  in
  Mutex.unlock t.wf_lock;
  ok

let wf_pool_take_for_transfer t ~addr =
  let tid = Lfrc_sched.Sched.self () in
  Mutex.lock t.wf_lock;
  let pool = wf_pool_of t tid in
  let w =
    match Hashtbl.find_opt pool addr with
    | Some (w, 1) ->
        Hashtbl.remove pool addr;
        w
    | Some (w, n) ->
        (* Other covered refs keep their pooled weight; the transferred
           reference leaves with the minimum (w >= n keeps every
           remaining ref covered). *)
        Hashtbl.replace pool addr (w - 1, n - 1);
        1
    | None -> 1
  in
  Mutex.unlock t.wf_lock;
  w

let wf_slot_take t ~cell =
  let id = Lfrc_simmem.Cell.id cell in
  Mutex.lock t.wf_lock;
  let w =
    match Hashtbl.find_opt t.wf_slots id with
    | Some w ->
        Hashtbl.remove t.wf_slots id;
        w
    | None -> 1
  in
  Mutex.unlock t.wf_lock;
  w

let wf_slot_set t ~cell ~w =
  let id = Lfrc_simmem.Cell.id cell in
  Mutex.lock t.wf_lock;
  if w = 1 then Hashtbl.remove t.wf_slots id
  else Hashtbl.replace t.wf_slots id w;
  Mutex.unlock t.wf_lock

let wf_slot_give t ~cell ~w =
  let id = Lfrc_simmem.Cell.id cell in
  Mutex.lock t.wf_lock;
  let w0 =
    match Hashtbl.find_opt t.wf_slots id with Some w0 -> w0 | None -> 1
  in
  Hashtbl.replace t.wf_slots id (w0 + w);
  Mutex.unlock t.wf_lock

let wf_slot_try_borrow t ~cell =
  let id = Lfrc_simmem.Cell.id cell in
  Mutex.lock t.wf_lock;
  let ok =
    match Hashtbl.find_opt t.wf_slots id with
    | Some w when w >= 2 ->
        if w - 1 = 1 then Hashtbl.remove t.wf_slots id
        else Hashtbl.replace t.wf_slots id (w - 1);
        true
    | _ -> false
  in
  Mutex.unlock t.wf_lock;
  ok

let wf_pooled t =
  Mutex.lock t.wf_lock;
  let addrs =
    Hashtbl.fold
      (fun _tid pool acc ->
        Hashtbl.fold (fun addr _ acc -> addr :: acc) pool acc)
      t.wf_pools []
  in
  Mutex.unlock t.wf_lock;
  addrs

let wf_adopt_pools t ~tids =
  let me = Lfrc_sched.Sched.self () in
  Mutex.lock t.wf_lock;
  let mine = wf_pool_of t me in
  let merged = ref 0 in
  List.iter
    (fun tid ->
      if tid <> me then
        match Hashtbl.find_opt t.wf_pools tid with
        | Some pool ->
            Hashtbl.iter
              (fun addr (w, n) ->
                incr merged;
                match Hashtbl.find_opt mine addr with
                | Some (w0, n0) -> Hashtbl.replace mine addr (w0 + w, n0 + n)
                | None -> Hashtbl.add mine addr (w, n))
              pool;
            Hashtbl.remove t.wf_pools tid
        | None -> ())
    tids;
  Mutex.unlock t.wf_lock;
  !merged

let owner t = Lfrc_sched.Owned.get t.owners (Lfrc_sched.Sched.self ())

let begin_destroy t p =
  let o = owner t in
  o.destroying <- p :: o.destroying

let rec drop p = function
  | [] -> []
  | x :: rest -> if x = p then rest else x :: drop p rest

let end_destroy t p =
  let o = owner t in
  o.destroying <- drop p o.destroying

let destroying_now t =
  Lfrc_sched.Owned.fold (fun acc o -> o.destroying @ acc) t.owners []

(* Surrender the registry entries of crashed threads, clearing them. *)
let adopt t ~tids take =
  List.fold_left
    (fun out tid ->
      match Lfrc_sched.Owned.find t.owners tid with
      | Some o -> take o @ out
      | None -> out)
    [] tids

(* Each destroy entry is one distinct committed-but-unfinished drop
   (duplicates are multiple pending drops — do NOT dedupe). *)
let adopt_destroying t ~tids =
  adopt t ~tids (fun o ->
      let l = o.destroying in
      o.destroying <- [];
      l)

let begin_publish ?(weight = 1) t p =
  if p <> Lfrc_simmem.Heap.null then begin
    let o = owner t in
    o.publishing <- (p, weight) :: o.publishing
  end

let rec drop_pub p = function
  | [] -> []
  | ((x, _) as e) :: rest -> if x = p then rest else e :: drop_pub p rest

let end_publish t p =
  if p <> Lfrc_simmem.Heap.null then begin
    let o = owner t in
    o.publishing <- drop_pub p o.publishing
  end

let publishing_now t =
  Lfrc_sched.Owned.fold
    (fun acc o -> List.map fst o.publishing @ acc)
    t.owners []

let adopt_publications t ~tids =
  adopt t ~tids (fun o ->
      let l = o.publishing in
      o.publishing <- [];
      l)

type local_frame = int

let register_locals t ~view ~take =
  let tid = Lfrc_sched.Sched.self () in
  Mutex.lock t.local_frames_lock;
  t.local_frame_ctr <- t.local_frame_ctr + 1;
  let id = t.local_frame_ctr in
  t.local_frames <-
    { fr_id = id; fr_tid = tid; fr_view = view; fr_take = take }
    :: t.local_frames;
  Mutex.unlock t.local_frames_lock;
  id

let unregister_locals t id =
  Mutex.lock t.local_frames_lock;
  t.local_frames <- List.filter (fun f -> f.fr_id <> id) t.local_frames;
  Mutex.unlock t.local_frames_lock

(* Take over the local frames of crashed threads: surrender each frame's
   references and unregister it, returning (owner tid, refs) per frame. *)
let adopt_locals t ~tids =
  Mutex.lock t.local_frames_lock;
  let mine, rest =
    List.partition (fun f -> List.mem f.fr_tid tids) t.local_frames
  in
  t.local_frames <- rest;
  Mutex.unlock t.local_frames_lock;
  List.map (fun f -> (f.fr_tid, f.fr_take ())) mine

let on_recover t hook = t.recover_hooks <- hook :: t.recover_hooks

let run_recovery_hooks t ~crashed =
  List.fold_left (fun acc hook -> acc + hook ~crashed) 0 t.recover_hooks

let rc_applying_addrs t =
  Mutex.lock t.rc_lock;
  let addrs = Hashtbl.fold (fun addr _ acc -> addr :: acc) t.rc_applying [] in
  Mutex.unlock t.rc_lock;
  addrs

let anchors t =
  Mutex.lock t.local_frames_lock;
  let frames = t.local_frames in
  Mutex.unlock t.local_frames_lock;
  let locals = List.concat_map (fun f -> f.fr_view ()) frames in
  Mutex.lock t.pending_lock;
  let pend = Queue.fold (fun acc p -> p :: acc) [] t.pending in
  Mutex.unlock t.pending_lock;
  (* A parked -1 means a reference died whose count adjustment has not
     landed; a parked +1 means a published pointer's count is still short.
     Either way the address is in the middle of an accounting transfer, so
     it is republished for the auditor exactly like an in-flight destroy.
     The same goes for flush-staged deltas and pre-CAS publications. *)
  destroying_now t @ pend
  @ rc_parked t
  @ rc_applying_addrs t
  @ wf_pooled t
  @ publishing_now t @ locals
