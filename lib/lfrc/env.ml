type policy =
  | Recursive
  | Iterative
  | Deferred of { budget_per_op : int }

type rc_mode =
  | Eager
  | Deferred_rc of { epoch : int }
  | Wait_free of { weight : int }

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
  (* The count-delivery mode, chosen once at creation: its module
     ({!Rc_mode.S}) owns whatever per-thread state the mode keeps. *)
  env_rc_mode : rc_mode;
  env_rc : rc;
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

and rc = (module Rc_mode.S with type env = t)

let create_with instantiate ?dcas_impl ?(policy = Iterative) ?(rc_mode = Eager)
    ?(gc_threshold = 0)
    ?(metrics = Lfrc_obs.Metrics.disabled) ?(tracer = Lfrc_obs.Tracer.disabled)
    ?(lineage = Lfrc_obs.Lineage.disabled)
    ?(profile = Lfrc_obs.Profile.disabled)
    ?(blame = Lfrc_obs.Blame.disabled)
    ?(sanitize = Lfrc_sanitize.Shadow.disabled) ?(symbolic = false) heap =
  let rc_mode =
    match rc_mode with
    | Eager -> Eager
    | Deferred_rc { epoch } -> Deferred_rc { epoch = max 1 epoch }
    | Wait_free { weight } -> Wait_free { weight = max 2 weight }
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
    env_rc_mode = rc_mode;
    env_rc = instantiate rc_mode;
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

let pop_deferred t =
  Mutex.lock t.pending_lock;
  let p = Queue.take_opt t.pending in
  let depth = Queue.length t.pending in
  Mutex.unlock t.pending_lock;
  if p <> None then
    Lfrc_obs.Metrics.set_gauge t.env_metrics "lfrc.deferred_depth" depth;
  p

let deferred_pending t =
  Mutex.lock t.pending_lock;
  let n = Queue.length t.pending in
  Mutex.unlock t.pending_lock;
  n

let rc_mode t = t.env_rc_mode
let rc t = t.env_rc

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

let anchors t =
  Mutex.lock t.local_frames_lock;
  let frames = t.local_frames in
  Mutex.unlock t.local_frames_lock;
  let locals = List.concat_map (fun f -> f.fr_view ()) frames in
  Mutex.lock t.pending_lock;
  let pend = Queue.fold (fun acc p -> p :: acc) [] t.pending in
  Mutex.unlock t.pending_lock;
  let (module M) = t.env_rc in
  destroying_now t @ pend @ M.anchors t @ publishing_now t @ locals
