(** Per-object lifecycle forensics.

    Records each tracked object's causal history — allocation, every
    reference-count transition (with the simulated thread, scheduler step
    and originating LFRC operation), retirement, deferral and free — into
    a bounded per-object ring. The rings keep the {e tail} of each
    trajectory: when a heap audit names a leaked or over-released
    address, the lineage answers "which operation dropped (or
    over-dropped) the final reference, on which thread, at which step".

    Timestamps are {!Lfrc_sched.Sched.steps_so_far} — the deterministic
    interleaving clock — so a recorded history replays identically under
    the same seed. Outside a simulation steps are 0 and events still
    order by arrival.

    The disabled recorder follows the disabled {!Metrics} singleton
    pattern: every recording entry point is a single branch. *)

type kind =
  | Alloc of { gen : int }
      (** object (re)allocated; [gen] is the heap incarnation number, so
          a recycled address's histories are distinguishable *)
  | Rc of { old_rc : int; delta : int }
      (** reference count moved from [old_rc] to [old_rc + delta] *)
  | Retire  (** handed to a deferred-reclamation scheme (EBR / HP) *)
  | Defer  (** destruction deferred by the LFRC Deferred policy *)
  | Defer_inc
      (** a +1 count adjustment parked in a deferred-rc buffer; the heap
          count is unchanged until a flush applies the net delta *)
  | Defer_dec  (** a parked -1 adjustment (see {!Defer_inc}) *)
  | Flush of { net : int }
      (** a deferred-rc flush applied this object's parked net delta to
          the heap count; paired with an {!Rc} event carrying the same
          delta so count replay stays legal *)
  | Free of { gen : int }  (** returned to the allocator *)
  | Adopt of { owner : int }
      (** crash recovery took over a reference to this object that was
          orphaned by crashed thread [owner]; the event's [tid] is the
          adopter. Count movement, if any, is recorded separately by the
          adopter's destroy/flush. *)
  | Wborrow
      (** wait-free mode: a load took the new reference's weight from the
          heap slot it read (borrow-on-handoff) — no count movement *)
  | Wshare
      (** wait-free mode: a copy covered the new reference from the
          thread's pooled weight — no count movement *)

type event = { step : int; tid : int; kind : kind; op : string }
(** [op] is the originating operation: the innermost instrumented
    operation open on [tid] when the event was recorded through
    {!Obs.record}, an explicit [?op], or ["?"]. *)

type t

val create : ?ring:int -> unit -> t
(** A fresh enabled recorder keeping the most recent [ring] events per
    object (default 64); [ring <= 0] returns {!disabled}. *)

val disabled : t
(** The shared no-op recorder: every record call is a single branch. *)

val enabled : t -> bool

(** {1 Recording} *)

val record : t -> ?op:string -> addr:int -> kind -> unit
(** Record one event for [addr], stamped with the current scheduler step
    and thread id and attributed to [op] (default ["?"]). The LFRC layer
    records through {!Obs.record}, which supplies the innermost open
    operation from the spine. *)

val record_rc : t -> ?op:string -> addr:int -> old_rc:int -> delta:int -> unit -> unit
(** [record t ~addr (Rc { old_rc; delta })]. *)

(** {1 Accounting} *)

val recorded : t -> int
(** Events ever recorded across all objects. *)

val dropped : t -> int
(** Events overwritten by ring wrap-around, across all objects. *)

val tracked : t -> int list
(** Addresses with any recorded history, ascending. *)

(** {1 Per-object queries} *)

val events : t -> addr:int -> event list
(** Retained events for [addr], oldest first (at most [ring]). *)

type state = {
  st_rc : int;  (** count after the latest recorded transition *)
  st_events : int;  (** events ever recorded (retained + overwritten) *)
  st_allocs : int;  (** incarnations seen *)
  st_frees : int;
}

val state : t -> addr:int -> state option

val last_drop : t -> addr:int -> event option
(** The most recent retained decrement ([Rc] with negative [delta]) —
    for a leaked object, the operation that dropped the last reference
    it ever lost. *)

val last_event : t -> addr:int -> event option

val top : t -> n:int -> (int * int) list
(** The [n] busiest addresses as [(addr, events-ever)] pairs, busiest
    first (ties broken by address). *)

(** {1 Rendering} *)

val pp_event : Format.formatter -> event -> unit

val timeline : t -> addr:int -> string
(** Human-readable per-address history: a summary header, a truncation
    marker when the ring wrapped, then one line per retained event
    ([step  tid  kind  op]). *)

val to_chrome_json : ?addr:int -> t -> string
(** Chrome trace-event export via {!Tracer.chrome_json_of_events}, one
    track per object ([tid] := address): alloc/free pair into a lifetime
    span, count transitions and retire/defer render as instants. Omitting
    [?addr] exports every tracked object. *)

val leak_report : t -> addrs:int list -> string
(** Join an audit's leaked-address list against the lineage: for each
    address, its recorded count and the operation that dropped its last
    reference ({!last_drop}), or its last touch when no drop was
    retained. The addresses come from
    {!Lfrc_faults.Audit.report.leaked_ids}; taking plain ints keeps this
    library below the fault layer in the dependency order. *)

val double_free_report : t -> addrs:int list -> string
(** Same join for over-released addresses: names the decrement that took
    the count below zero (or the excess free) and the operation that
    issued it. *)

val summary : t -> string
(** One-line global accounting: objects tracked, events recorded and
    dropped, ring capacity. *)
