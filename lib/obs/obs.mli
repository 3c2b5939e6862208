(** The observability spine: metrics, tracer, lineage, profiler and
    blame under one master switch, and the one per-thread stack of open
    op frames they all read.

    Every instrumented site reports through this module:
    {!Lfrc_core.Lfrc}'s spans call {!op_begin}/{!op_end}, its retry loops
    {!retry}, the DCAS substrate {!dcas_retry}, {!fault} and the blame
    hooks, the heap observer {!record}, crash handling {!adopt}. A frame
    holds the op's label, its start step and the retries and failed
    CAS/DCAS attempts charged to it; the profiler finishes the popped
    frame, lineage and blame take the innermost label, the sanitizer
    asks {!current_op}. The stack is keyed by
    {!Lfrc_sched.Sched.self}, so it is per simulated thread under the
    scheduler and per domain outside it, and only its owner writes it.

    [create ~master:false] returns {!disabled} regardless of the
    per-layer flags, so a single configuration bit ([--no-metrics] in the
    harness) provably turns every layer into its one-branch disabled
    form. Layers the flags leave off are individually disabled within an
    enabled bundle. *)

type frames

type t = private {
  metrics : Metrics.t;
  tracer : Tracer.t;
  lineage : Lineage.t;
  profile : Profile.t;
  blame : Blame.t;
  framed : bool;
      (** frames are pushed: some sink reads them (tracer, lineage,
          profiler, blame, or a sanitizer via [~frames]) *)
  frames : frames;
}

val make :
  ?frames:bool ->
  ?metrics:Metrics.t ->
  ?tracer:Tracer.t ->
  ?lineage:Lineage.t ->
  ?profile:Profile.t ->
  ?blame:Blame.t ->
  unit ->
  t
(** Bundle the given sinks (each defaults to its disabled form) with a
    fresh, empty frame stack. [frames] (default [false]) forces frames
    on for a reader outside this library (the sanitizer's access
    sites). *)

val disabled : t
(** Every layer in its disabled form; frames off. *)

val enabled : t -> bool
(** True iff at least one layer is live. *)

val create :
  ?master:bool ->
  ?metrics:bool ->
  ?trace_capacity:int ->
  ?lineage_ring:int ->
  ?profile:bool ->
  ?blame:bool ->
  unit ->
  t
(** Build the sinks from flags. Defaults: [master = true],
    [metrics = true], everything else off. When [blame] is set the blame
    registry is created over this bundle's tracer, so attributed
    failures emit flow events whenever the tracer is live. *)

(** {1 Hooks} *)

val op_begin : t -> string -> unit
(** Open a frame labelled with the op's name on the calling thread and
    emit the tracer's [Begin]. Call only when [framed]. *)

val op_end : t -> string -> unit
(** Close the calling thread's innermost frame: blame closes a retry
    chain the op opened, the profiler accumulates the frame; then emit
    the tracer's [End] for the named span. *)

val retry : t -> string -> unit
(** The innermost op's loop re-ran: a tracer [Retry] event named
    [name], charged to the innermost frame (or to the profiler's
    ["(unattributed)"] site when none is open). *)

val dcas_retry : t -> string -> unit
(** A CAS/DCAS attempt failed: a tracer [Retry] event, charged to the
    innermost frame's failed attempts. *)

val fault : t -> string -> unit
(** An injected fault fired: a tracer [Fault] event. *)

val add_counters : t -> (unit -> (string * int) list) -> unit
(** Counters the caller keeps itself, read by the metrics registry at
    snapshot ({!Metrics.add_source}); the DCAS substrate registers its
    per-domain blocks this way, so it reports through the spine alone. *)

val current_op : t -> string
(** The calling thread's innermost open op label; ["(unattributed)"]
    when none is open or frames are off. *)

val record : t -> addr:int -> Lineage.kind -> unit
(** Record a lineage event attributed to the innermost open op (["?"]
    outside any). One branch when lineage is off. *)

val record_rc : t -> addr:int -> old_rc:int -> delta:int -> unit
(** [record t ~addr (Rc { old_rc; delta })], allocating nothing when
    lineage is off. *)

val stamp : t -> Blame.op_kind -> int -> unit
(** {!Blame.stamp} at {!current_op}; one branch when blame is off. *)

val charge : t -> Blame.op_kind -> int -> unit
(** {!Blame.charge} at {!current_op}; one branch when blame is off. *)

val charge_spurious : t -> Blame.op_kind -> unit
(** {!Blame.charge_spurious} at {!current_op}. *)

(** {1 Crashes} *)

val adopt : t -> crashed:int list -> int * int
(** Take the crashed threads' open frames off their stacks and fold
    them, with their open retry chains, into blame ({!Blame.adopt}).
    Returns the [(frames, chains)] blame adopted — [(0, 0)] with blame
    off. Idempotent per thread. *)

val open_frames : t -> int
(** Frames open across all threads (0 after a clean run). Quiescent
    use. *)
