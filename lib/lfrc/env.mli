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

(** How reference-count adjustments reach the heap:

    - [Eager] — every ±1 is a CAS on the object's count word, the paper's
      Figure-2 behaviour. The default.
    - [Deferred { epoch }] — deferred-rc coalescing: {!Lfrc}'s increment
      and decrement sites park ±1 adjustments in per-thread buffers (see
      the [rc_*] accessors below) instead of CASing the heap count, and a
      global flush applies the netted deltas once [epoch] adjustments have
      been parked (or earlier, at forced flush points). [epoch] must be
      positive.
    - [Wait_free { weight }] — weighted (split) reference counts,
      Blelloch–Wei style: the count word holds the object's {e total
      weight} (the sum over every live reference of the weight it
      carries), [copy]/[destroy] adjust it with a single
      {!Lfrc_atomics.Dcas.fetch_add} — no retry loop — and pointer
      handoffs move weight instead of touching the count at all. The
      Figure-2 DCAS survives only as [load]'s fallback when a heap slot's
      weight is exhausted; [weight] (clamped to >= 2) is the batch minted
      per refill. See the [wf_*] accessors below and DESIGN.md §17. *)
type rc_mode =
  | Eager
  | Deferred_rc of { epoch : int }
  | Wait_free of { weight : int }

val rc_mode_of_epoch : int -> rc_mode
(** [Eager] for 0 (and anything non-positive), [Deferred_rc { epoch }]
    otherwise — the bridge for callers still holding a raw epoch. *)

type t

val create :
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
(** Defaults: [dcas_impl] is [Atomic_step] when called under the simulator
    and [Striped_lock] otherwise; [policy] is [Iterative]; [gc_threshold]
    (live-object count that triggers a tracing collection in GC-dependent
    mode; 0 disables) is 0.

    [rc_mode] selects eager Figure-2 counts or deferred-rc coalescing; see
    {!type:rc_mode}. (The pre-PR-7 [?rc_epoch] integer alias is gone;
    callers still holding an epoch convert with {!rc_mode_of_epoch}.)

    [blame] (default disabled, one branch per event) wires the contention
    causality layer: the DCAS substrate stamps every successful write and
    charges every failed compare to its stamped culprit, and {!Lfrc}
    binds reference-count cells to their owning object so rc contention
    is named. Attaching a registry calls {!Lfrc_obs.Blame.new_run} first:
    cell ids restart per heap, so stamps must not leak across
    environments (aggregated pairs survive).

    [metrics], [tracer], [lineage] and [profile] default to the disabled
    singletons — the no-op
    observability implementations, chosen here once so every instrumented
    hot path below pays a single branch when observability is off.
    Passing enabled instances wires the whole environment: the DCAS
    substrate ({!Lfrc_atomics.Dcas.attach_obs}), the heap's alloc/free
    observer ({!Lfrc_simmem.Heap.set_observer}), the deferred-destroy
    queue, and {!Lfrc}'s operations all report into them. Sharing one
    registry across several environments aggregates their series.

    [sanitize] (default {!Lfrc_sanitize.Shadow.disabled}, one branch per
    access) wires the LFRC-San shadow-memory sanitizer: it is bound to
    this heap and observability ({!Lfrc_sanitize.Shadow.attach}), attached
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

val metrics : t -> Lfrc_obs.Metrics.t
val tracer : t -> Lfrc_obs.Tracer.t

val lineage : t -> Lfrc_obs.Lineage.t
(** The per-object lifecycle recorder ({!Lfrc_obs.Lineage}); the heap
    observer feeds it alloc/free events and {!Lfrc} feeds it count
    transitions, retires and deferrals. *)

val profile : t -> Lfrc_obs.Profile.t
(** The call-site contention profiler ({!Lfrc_obs.Profile}); {!Lfrc}'s
    spans open/close frames on it and the DCAS substrate charges failed
    attempts to the innermost frame. *)

val blame : t -> Lfrc_obs.Blame.t
(** The contention-causality registry ({!Lfrc_obs.Blame}); {!Lfrc}'s
    spans open/close blame frames on it and bind rc cells to their
    owners, the DCAS substrate stamps winners and charges losers. *)

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

(** {2 Deferred-rc coalescing buffers}

    Raw buffer plumbing for {!Lfrc}'s deferred-rc mode; structure code
    never calls these. Every operation here is mutex-only — no scheduler
    yield points — so under the simulator each is atomic with respect to
    interleaving. *)

val rc_mode : t -> rc_mode
(** The count-update mode this environment was created with. *)

val rc_epoch : t -> int
(** Parked-adjustment budget that triggers an automatic flush; [0] means
    deferred-rc is off (eager Figure-2 counts). Equals the epoch of
    {!rc_mode} when it is [Deferred_rc], else [0]. *)

val rc_deferred : t -> bool
(** [rc_epoch t > 0]. *)

val rc_park : t -> addr:int -> delta:int -> int
(** Park a ±1 count adjustment for [addr] in the calling thread's buffer,
    netting it against any adjustment already parked there (a +1 and a -1
    cancel without ever touching the heap). Returns the number of park
    operations since the last drain, for the epoch trigger. *)

val rc_drain_all : t -> (int * int) list
(** Atomically empty {e every} thread's buffer and return the per-address
    net deltas (zero nets omitted, order unspecified). Resets the park
    counter. *)

val rc_steal : t -> addr:int -> int
(** Atomically remove [addr]'s parked deltas from every thread's buffer
    and return their sum (0 when nothing was parked). Used by the flush
    to absorb adjustments parked while it runs. *)

val rc_parked : t -> int list
(** Addresses with a nonzero parked net, across all threads (duplicates
    possible); folded into {!anchors}. *)

val rc_try_begin_flush : t -> bool
(** Claim the flush-in-progress flag; [false] means another thread is
    already flushing and the caller may skip (its parked deltas will be
    picked up by that flush's re-drain loop). The claiming thread's id is
    recorded so {!rc_recover_flush} can tell a stuck flag (dead owner)
    from a live flush. *)

val rc_end_flush : t -> unit

(** {3 Crash-safe flush staging}

    A flush drains parked deltas into an environment-owned applying table
    and removes each only once its heap effect has landed; the flusher's
    OCaml locals never hold the only copy. A flusher that crashes mid-apply
    therefore loses nothing: {!rc_recover_flush} re-parks the leftovers. *)

val rc_drain_into_applying : t -> bool
(** Atomically move every thread's parked deltas into the applying table
    (netting against anything already staged there). Returns whether any
    buffer had content. Caller must hold the flush flag. *)

val rc_applying_snapshot : t -> (int * int) list
(** The staged (addr, net delta) pairs not yet applied, order unspecified. *)

val rc_absorb : t -> addr:int -> int
(** Atomically remove [addr]'s deltas from every thread's buffer {e and}
    the applying table, returning the net. The zero-detect path uses this
    so a concurrently staged delta cannot resurrect or double-free. *)

val rc_apply_done : t -> addr:int -> unit
(** The staged delta for [addr] has landed on the heap; unstage it. *)

val rc_restage : t -> addr:int -> int
(** Fold any freshly parked deltas for [addr] into its staged entry and
    return the staged net (0 when nothing anywhere). The entry stays
    staged until {!rc_apply_done}, so a crash in between loses nothing. *)

val rc_recover_flush : t -> crashed:int list -> int
(** If the thread holding the flush flag is in [crashed], re-park its
    staged deltas (into the dead owner's buffer, where they stay anchored)
    and release the flag; otherwise do nothing. Returns the number of
    re-parked deltas. *)

val rc_parked_of : t -> tids:int list -> int
(** Number of addresses with parked deltas in the given threads' buffers
    (adoption accounting aid). *)

(** {2 Wait-free weighted-rc side tables}

    Raw weight plumbing for {!Lfrc}'s [Wait_free] mode; structure code
    never calls these. The count word holds total weight; each thread's
    {e pouch} maps addr -> (pooled weight [w], covered refs [n]) — the
    side-table stand-in for the weight bits a real implementation packs
    into each local pointer word (invariant [w >= n >= 1]; a reference
    with no pouch entry carries implicit weight 1). [wf_slot_*] does the
    same for heap pointer slots, keyed by cell id (absent = weight 1);
    callers remove a slot's entry in the same atomic step that nulls or
    overwrites the slot, so recycled cell ids never inherit stale weight.
    Every operation here is mutex-only — atomic under the simulator. *)

val wf_on : t -> bool
(** Whether this environment runs weighted (wait-free) counts. *)

val wf_weight : t -> int
(** The batch weight minted per refill/publication; [0] when off. *)

val wf_pool_add : t -> addr:int -> w:int -> n:int -> unit
(** Merge [w] weight covering [n] more references into the calling
    thread's pouch entry for [addr] (creating it if absent). *)

val wf_pool_try_share : t -> addr:int -> bool
(** If the calling thread's pouch entry for [addr] has spare weight
    ([w > n]), cover one more reference from the pool ([n + 1]) and
    return [true] — the copy fast path that never touches the heap. *)

val wf_pool_try_drop_shared : t -> addr:int -> bool
(** If the entry covers more than one reference, drop one ([n - 1]),
    leaving its weight pooled for the survivors, and return [true] — the
    destroy fast path that never touches the heap. *)

val wf_pool_weight : t -> addr:int -> int
(** Peek the pooled weight for [addr] in the calling thread's pouch
    (1 if absent — the implicit weight of an untracked reference). *)

val wf_pool_remove : t -> addr:int -> unit
(** Drop the calling thread's pouch entry for [addr] (after its weight
    landed on the heap count). *)

val wf_pool_give : t -> addr:int -> w:int -> bool
(** Merge [w] weight into an existing entry {e without} covering a new
    reference — returning unspent publication weight to a pouch that
    still holds the pointer. [false] if no entry exists (the caller must
    then return the weight through the count word instead). *)

val wf_pool_take_for_transfer : t -> addr:int -> int
(** Surrender the weight a reference to [addr] hands off to a heap slot:
    the whole pool if this was the last covered reference (entry
    removed), else 1 (leaving [w - 1 >= n - 1] pooled). 1 if absent. *)

val wf_slot_take : t -> cell:Lfrc_simmem.Cell.t -> int
(** Remove and return the weight carried by this heap slot (1 if
    untracked). Call in the same atomic step that claims or nulls the
    slot's pointer. *)

val wf_slot_set : t -> cell:Lfrc_simmem.Cell.t -> w:int -> unit
(** The slot now carries weight [w] (for the pointer just installed). *)

val wf_slot_give : t -> cell:Lfrc_simmem.Cell.t -> w:int -> unit
(** Add [w] to the slot's carried weight — [load]'s exhaustion-refill
    deposits the freshly minted batch here. *)

val wf_slot_try_borrow : t -> cell:Lfrc_simmem.Cell.t -> bool
(** If the slot carries weight >= 2, take 1 and return [true] — [load]'s
    borrow-on-handoff fast path. [false] on an exhausted slot. *)

val wf_pooled : t -> int list
(** Addresses with pouch entries, across all threads; folded into
    {!anchors}. *)

val wf_adopt_pools : t -> tids:int list -> int
(** Merge the given (crashed) threads' pouches into the calling thread's,
    so the recovery pass's adoption destroys consume the orphaned weight.
    Returns the number of entries merged. *)

val defer : t -> int -> unit
(** Enqueue a dead object for deferred freeing. Only valid under the
    [Deferred] policy. *)

val drain_deferred : t -> max:int -> int list
(** Dequeue up to [max] pending dead objects (all of them if [max < 0]). *)

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
    destroys, the deferred queue's contents, addresses with parked or
    flush-staged rc deltas, pouched weight entries, pending publications,
    and all registered locals (with duplicates and nulls possible; the
    caller filters). *)
