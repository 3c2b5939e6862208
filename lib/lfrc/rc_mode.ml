(** How reference-count adjustments reach the heap: the one thing that
    differs between the count-delivery modes. {!Lfrc} writes the
    paper's Figure-2 operations once and calls these hooks where a count
    moves; {!Eager}, {!Deferred} and {!Wait_free} implement them, each
    owning its state. An environment picks its module once, at creation
    ({!Env.rc}).

    A hook that runs "in the CAS's atomic step" does not yield before its
    own first shared-memory access, so under the simulator no crash can
    separate it from the CAS it follows. *)

module type S = sig
  type env

  (** {2 Acquire on load} *)

  val load_weight : int
  (** What {!Lfrc.load}'s DCAS adds to the target's count while checking
      that the source still points at it (Figure 2, line 8). *)

  val borrow : env -> src:Lfrc_simmem.Cell.t -> Lfrc_simmem.Heap.ptr -> bool
  (** Cover a reference to [p], just read from [src], without the DCAS;
      [false] when the mode has no such fast path or it is exhausted. *)

  val loaded : env -> src:Lfrc_simmem.Cell.t -> Lfrc_simmem.Heap.ptr -> unit
  (** Bookkeeping in the winning load DCAS's atomic step. *)

  (** {2 Publish, then commit or give back} *)

  val publish : env -> Lfrc_simmem.Heap.ptr -> unit
  (** Raise [p]'s count ahead of a CAS that may install it, recording
      the raise with {!Env.begin_publish} in the step it lands. The
      caller ends the publication when the CAS resolves. No-op on null. *)

  val acquire : env -> Lfrc_simmem.Heap.ptr -> unit
  (** Raise [p]'s count for a new local copy ({!Lfrc.copy}); a raise
      that can yield before the local holds [p] is registered like
      {!publish}, and the caller ends it once the assignment lands. *)

  val installed :
    env ->
    cell:Lfrc_simmem.Cell.t ->
    oldv:Lfrc_simmem.Heap.ptr ->
    newv:Lfrc_simmem.Heap.ptr ->
    owned:bool ->
    unit
  (** A single-cell CAS replaced [oldv] by [newv] in [cell]: settle the
      slot and drop [oldv] (a plain {!Lfrc.destroy} unless the slot
      carries weight), starting in the CAS's atomic step. [owned]: [newv]'s
      count is the caller's own reference ({!Lfrc.store_alloc}). *)

  val claim :
    env ->
    cell:Lfrc_simmem.Cell.t ->
    oldv:Lfrc_simmem.Heap.ptr ->
    newv:Lfrc_simmem.Heap.ptr ->
    unit
  (** One cell of a winning {!Lfrc.dcas}, in its atomic step: register
      [oldv]'s drop (committed later with {!Lfrc.destroy_registered})
      and settle the slot for the published [newv]. *)

  val give_back : env -> Lfrc_simmem.Heap.ptr -> unit
  (** Undo a {!publish} whose CAS failed (publication already ended). *)

  (** {2 Release} *)

  val drop : env -> Lfrc_simmem.Heap.ptr -> unit
  (** {!Lfrc.destroy} of a non-null [p]: drop one counted reference the
      caller holds and has not registered. *)

  val release : env -> Lfrc_simmem.Heap.ptr -> bool
  (** Drop one reference to [p], whose pending drop is in the destroy
      registry. [true]: [p] died and stays registered for the caller's
      teardown. [false]: the registration has been consumed. *)

  val claim_child :
    env -> cell:Lfrc_simmem.Cell.t -> Lfrc_simmem.Heap.ptr -> unit
  (** A teardown is nulling [cell], a dead parent's slot holding the
      (registered) child, in this same atomic step. *)

  val orphan : env -> cell:Lfrc_simmem.Cell.t -> Lfrc_simmem.Heap.ptr -> unit
  (** Null [cell], a slot of a husk whose destroyer crashed, and drop the
      child it held ({!Lfrc.finish_teardown}). *)

  (** {2 Settle, crash adoption and audit} *)

  val flush : env -> int
  (** Land every count adjustment the mode holds back; returns how many
      objects that freed. *)

  val adopt : env -> crashed:int list -> int
  (** Take over the crashed threads' count-delivery state for the
      recovery pass; returns how many entries were adopted. *)

  val adopt_publication : env -> Lfrc_simmem.Heap.ptr -> weight:int -> unit
  (** A crashed thread's unresolved publication of [weight] is about to
      be dropped as one reference by the recovery pass. *)

  val anchors : env -> int list
  (** Addresses whose count adjustment the mode holds in flight, for
      the fault auditor ({!Env.anchors}). *)
end
