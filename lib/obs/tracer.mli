(** Bounded event tracing keyed to the deterministic scheduler's step
    numbers.

    Instrumented layers emit begin/end spans for LFRC operations, instant
    events for retries, frees and injected faults, and the ring keeps the
    last [capacity] of them. Under {!Lfrc_sched.Sched.run} the timestamp
    of an event is the simulation step at which it happened — the exact
    interleaving clock — so a trace is a replayable account of {e which}
    retry happened {e when}. Outside a simulation steps are 0 and events
    still order by arrival.

    Export as Chrome [chrome://tracing] / Perfetto JSON
    ({!to_chrome_json}) or as a compact text timeline ({!to_timeline}). *)

type kind =
  | Begin  (** an instrumented operation starts (span open) *)
  | End  (** the matching span closes *)
  | Retry  (** a CAS/DCAS attempt failed and the loop will re-run *)
  | Free  (** an object went back to the allocator *)
  | Fault  (** an injected fault fired (spurious failure, OOM, crash) *)
  | Instant  (** anything else worth a point mark *)
  | Flow_out
      (** start of a causal arrow (e.g. a winning write that dooms another
          thread's CAS); [arg] is the flow id pairing it with its
          {!Flow_in} *)
  | Flow_in  (** end of a causal arrow, at the doomed attempt *)

type event = { step : int; tid : int; kind : kind; name : string; arg : int }

type t

val create : capacity:int -> t
(** A fresh enabled tracer holding at most [capacity] events (older
    events are overwritten); [capacity <= 0] returns {!disabled}. *)

val disabled : t
(** The shared no-op tracer: {!emit} is a single branch. *)

val enabled : t -> bool

val emit : t -> ?arg:int -> kind -> string -> unit
(** Record one event stamped with the current scheduler step and
    simulated thread id. No-op on the disabled tracer. *)

val emit_at : t -> step:int -> tid:int -> ?arg:int -> kind -> string -> unit
(** Like {!emit} but with an explicit (step, tid) — used by the blame
    layer to backdate a {!Flow_out} to the culprit's winning write. *)

val set_meta : t -> (string * string) list -> unit
(** Attach run metadata (seed, rc mode, fault plan token, obs flags …);
    exported in the chrome JSON [metadata] header and as [-- meta k=v]
    footer lines of the text timeline, so saved traces are
    self-describing. *)

val meta : t -> (string * string) list

val events : t -> event list
(** Retained events, oldest first (at most [capacity]). *)

val recorded : t -> int
(** Total events ever emitted, including overwritten ones. *)

val dropped : t -> int
(** [recorded - retained]: how many fell off the ring. *)

val kind_name : kind -> string

val chrome_json_of_events : ?meta:(string * string) list -> event list -> string
(** The Chrome trace-event format over an arbitrary event list:
    [{"traceEvents": [...]}] with Begin/End pairs re-paired into ["X"]
    (complete-span) records and everything else as ["i"] (instant)
    records; [ts] is the simulation step. Pairing is per-[tid]; an
    orphaned End (its Begin fell off the ring) degrades to an ["op-end"]
    instant, and an orphaned Begin (its End was overwritten, or the trace
    was cut mid-span) degrades to an ["op-open"] instant rather than
    blocking outer spans from pairing. Loads directly in
    [chrome://tracing] and Perfetto. The lineage forensics reuse this
    pairing for per-object timelines. *)

val to_chrome_json : t -> string
(** [chrome_json_of_events] over this tracer's retained events. *)

val timeline_of_events :
  ?dropped:int -> ?meta:(string * string) list -> event list -> string
(** One line per event: [step  tid  kind  name  arg], with a
    [-- N retained, M dropped] accounting footer (and a leading marker
    when [dropped > 0]), then one [-- meta k=v] line per metadata pair. *)

val to_timeline : t -> string
(** [timeline_of_events] over this tracer's retained events and drop
    count. *)
