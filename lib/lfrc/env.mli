(** Execution environment threaded through every LFRC operation: the heap,
    the DCAS substrate, and the destroy policy.

    The destroy policy governs what happens when a reference count falls to
    zero:

    - [Recursive]: free the object and recursively destroy its pointers —
      the paper's Figure 2 verbatim. A long chain destroys with deep
      recursion and an unbounded pause.
    - [Iterative]: semantically identical, but with an explicit work list,
      so arbitrarily long chains cannot overflow the stack. The default.
    - [Deferred]: enqueue the dead object and free at most
      [budget_per_op] objects per subsequent LFRC operation — the paper's
      Section 7 "incremental collection" future-work extension, bounding
      pause times (experiment E6). [flush] drains the queue. *)

type policy =
  | Recursive
  | Iterative
  | Deferred of { budget_per_op : int }

(** How reference-count adjustments reach the heap — the count-delivery
    mode, one {!Rc_mode.S} module each:

    - [Eager] ({!Eager}) — every ±1 is a CAS on the object's count word,
      the paper's Figure-2 behaviour. The default.
    - [Deferred_rc { epoch }] ({!Deferred}) — deferred-rc coalescing:
      increments and decrements park as ±1 adjustments in per-thread
      buffers instead of CASing the heap count, and a global flush
      applies the netted deltas once [epoch] adjustments have been parked
      (or earlier, at forced flush points). Clamped to [epoch >= 1].
    - [Wait_free { weight }] ({!Wait_free}) — weighted (split) reference
      counts, Blelloch–Wei style: the count word holds the object's
      {e total weight} (the sum over every live reference of the weight
      it carries), [copy]/[destroy] adjust it with a single
      {!Lfrc_atomics.Dcas.fetch_add} — no retry loop — and pointer
      handoffs move weight instead of touching the count at all. The
      Figure-2 DCAS survives only as [load]'s fallback when a heap slot's
      weight is exhausted; [weight] (clamped to >= 2) is the batch minted
      per refill. See DESIGN.md §17. *)
type rc_mode =
  | Eager
  | Deferred_rc of { epoch : int }
  | Wait_free of { weight : int }

type t

type rc = (module Rc_mode.S with type env = t)
(** A count-delivery module instance, with its own state. *)

val create_with :
  (rc_mode -> rc) ->
  ?dcas_impl:Lfrc_atomics.Dcas.impl ->
  ?policy:policy ->
  ?rc_mode:rc_mode ->
  ?gc_threshold:int ->
  ?metrics:Lfrc_obs.Metrics.t ->
  ?tracer:Lfrc_obs.Tracer.t ->
  ?lineage:Lfrc_obs.Lineage.t ->
  ?profile:Lfrc_obs.Profile.t ->
  ?blame:Lfrc_obs.Blame.t ->
  ?sanitize:Lfrc_sanitize.Shadow.t ->
  ?symbolic:bool ->
  Lfrc_simmem.Heap.t ->
  t
(** [create_with instantiate ...] builds an environment whose
    count-delivery module is [instantiate rc_mode]; every caller outside
    this library uses [Lfrc_core.Env.create], which supplies the modes.

    Defaults: [dcas_impl] is [Atomic_step] when called under the simulator
    and [Striped_lock] otherwise; [policy] is [Iterative]; [gc_threshold]
    (live-object count that triggers a tracing collection in GC-dependent
    mode; 0 disables) is 0.

    [rc_mode] (default [Eager]) selects the count-delivery mode; see
    {!type:rc_mode}.

    [metrics], [tracer], [lineage], [profile] and [blame] default to
    their disabled singletons and are bundled into one
    {!Lfrc_obs.Obs.t} — the observability spine, with this
    environment's own per-thread stack of open op frames — chosen here
    once, so every instrumented hot path below pays a single branch per
    sink when observability is off. The bundle is wired to the DCAS
    substrate ({!Lfrc_atomics.Dcas.attach_obs}, which also lets an
    enabled [metrics] registry read the substrate's [dcas.*] counts),
    the heap's alloc/free observer ({!Lfrc_simmem.Heap.set_observer}),
    the deferred-destroy queue and {!Lfrc}'s operations. Sharing one
    registry across several environments aggregates their series.
    Attaching a [blame] registry calls {!Lfrc_obs.Blame.new_run} first:
    cell ids restart per heap, so stamps must not leak across
    environments (aggregated pairs survive).

    [sanitize] (default {!Lfrc_sanitize.Shadow.disabled}, one branch per
    access) wires the LFRC-San shadow-memory sanitizer: it is bound to
    this heap and the spine ({!Lfrc_sanitize.Shadow.attach}), which then
    pushes op frames so findings name their sites, attached
    to the DCAS substrate's access hooks
    ({!Lfrc_atomics.Dcas.attach_sanitizer}), fed alloc/free events through
    the heap observer, and notified by {!Lfrc}'s zero-detect paths when a
    thread takes ownership of a dead object's destruction.

    [symbolic] marks the environment as belonging to the static analyser
    ([lib/analysis]): structure code running over it is being *recorded*,
    not executed, so no real LFRC operation may touch it. Every {!Lfrc}
    entry point checks the flag and raises {!Lfrc.Symbolic_bypass} — which
    is how the analyser catches client code that side-steps the
    {!Ops_intf.OPS} functor argument and calls {!Lfrc} directly (a
    discipline violation the type checker alone cannot see, because the
    environment is reachable through the structure record). *)

val heap : t -> Lfrc_simmem.Heap.t
val dcas : t -> Lfrc_atomics.Dcas.t

val symbolic : t -> bool
(** Whether this environment is a static-analysis recording environment
    (created with [~symbolic:true]); see {!create}. *)

val policy : t -> policy
val gc_threshold : t -> int

val obs : t -> Lfrc_obs.Obs.t
(** The observability spine: the sinks this environment was created
    with and its per-thread op frames ({!Lfrc_obs.Obs}). *)

val metrics : t -> Lfrc_obs.Metrics.t
(** [(obs t).metrics]. *)

val sanitizer : t -> Lfrc_sanitize.Shadow.t
(** The LFRC-San shadow-memory sanitizer this environment was created
    with; the disabled singleton unless [~sanitize] was passed. *)

val set_incremental : t -> collector:Lfrc_simmem.Gc_incr.t -> budget:int -> unit
(** Attach an incremental collector for GC-dependent mode: {!Gc_ops} will
    discharge its write-barrier and allocation-color obligations and
    advance the cycle by [budget] units per operation. Mutually exclusive
    in spirit with [gc_threshold]-driven stop-the-world collection (the
    incremental collector takes precedence when attached). *)

val incremental : t -> (Lfrc_simmem.Gc_incr.t * int) option

val rc_mode : t -> rc_mode
(** The count-delivery mode this environment was created with (after
    clamping). *)

val rc : t -> rc
(** The count-delivery module {!Lfrc} dispatches to. *)

val defer : t -> int -> unit
(** Enqueue a dead object for deferred freeing. Only valid under the
    [Deferred] policy. *)

val pop_deferred : t -> int option
(** Dequeue the oldest pending dead object. *)

val deferred_pending : t -> int

(** {2 Audit publication}

    From the moment a destroy commits to dropping a reference until the
    object is freed (or parked in the deferred queue), that reference is
    held only in the destroying thread's OCaml locals — invisible to the
    heap. The destroy registry republishes such objects (per thread), and
    {!register_locals} does the same for a thread's local pointer
    variables, so the post-mortem fault auditor can
    attribute a crashed thread's leaks to its lost references instead of
    flagging them as unaccounted.

    None of this is visible to the heap: heap frames feed the tracing
    collectors and invariant checkers, whose semantics must not change
    under LFRC (a dead thread's stack is gone in the real world, and a
    counted local mid-ownership-transfer is not an extra reference).
    {!Lfrc}'s destroy paths and {!Lfrc_ops} maintain these registries;
    user code never needs to.

    The destroy and publish registries are owner-local: one record per
    thread identity ({!Lfrc_sched.Sched.self}), found without a lock or
    an allocation and written only by its owner, so the eager hot path
    takes no shared lock for them. The readers — {!destroying_now},
    {!publishing_now}, {!anchors} and the [adopt_*] functions — take no
    lock either, and see a consistent state only under the simulator
    (threads interleave at yield points, and none lies inside these
    calls) or at quiescence (every other domain joined or stopped). *)

val begin_destroy : t -> int -> unit
(** Record, in the calling thread's own registry, that it holds an
    unpublished reference to this object while tearing it down. *)

val end_destroy : t -> int -> unit
(** The object has been freed (or handed to the deferred queue); drop it
    from the current thread's registry entry. *)

val destroying_now : t -> int list
(** All registered in-flight destroys, across threads (auditing aid;
    quiescent or simulated use). *)

val adopt_destroying : t -> tids:int list -> int list
(** Surrender and clear the destroy-registry entries of the given
    (crashed) threads. Each entry is one distinct committed-but-unfinished
    drop; duplicates are multiple pending drops and are all returned. *)

val begin_publish : ?weight:int -> t -> int -> unit
(** Record a speculative count increment the current thread has made ahead
    of a publishing CAS (store/cas/dcas raise the new pointer's count
    first). [weight] (default 1) is the size of the increment — wait-free
    mode publishes whole weight batches — and is what a recovery pass
    must compensate. No-op on null. *)

val end_publish : t -> int -> unit
(** The publication resolved — the CAS landed, or the compensating destroy
    is about to be registered; drop one occurrence. No-op on null. *)

val publishing_now : t -> int list
(** All pending publications, across threads (auditing aid; quiescent or
    simulated use). *)

val adopt_publications : t -> tids:int list -> (int * int) list
(** Surrender and clear the pending publications of the given (crashed)
    threads, one [(addr, weight)] entry per uncompensated increment. *)

type local_frame

val register_locals :
  t -> view:(unit -> int list) -> take:(unit -> int list) -> local_frame
(** Publish a thread's local pointer variables for the auditor. [view]
    reads them non-destructively (anchoring); [take] surrenders them —
    reads and clears — so a recovery pass can adopt them exactly once.
    The calling simulated thread is recorded as the frame's owner.
    Returns a token for {!unregister_locals}. *)

val unregister_locals : t -> local_frame -> unit

val adopt_locals : t -> tids:int list -> (int * int list) list
(** Take over (surrender + unregister) the local frames owned by the given
    (crashed) threads; returns [(owner tid, refs)] per frame. *)

val on_recover : t -> (crashed:int list -> int) -> unit
(** Register a recovery hook. Reclamation baselines (EBR/HP) use this to
    evict crashed threads' pinned epochs / hazard slots without the fault
    layer depending on the reclaim library. The hook returns how many
    slots/objects it recovered. *)

val run_recovery_hooks : t -> crashed:int list -> int
(** Run all registered recovery hooks; returns the summed counts. *)

val anchors : t -> int list
(** Everything the auditor may treat as a lost-reference anchor: in-flight
    destroys, the deferred queue's contents, the count-delivery module's
    in-flight addresses ({!Rc_mode.S.anchors}), pending publications,
    and all registered locals (with duplicates and nulls possible; the
    caller filters). *)
