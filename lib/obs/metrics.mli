(** Per-environment metrics registry: counters, gauges, and histograms.

    The paper's cost claims are all about {e hidden per-operation work} —
    extra DCAS attempts inside LFRCLoad, retry loops under contention,
    deferred frees — which end-to-end wall time cannot attribute. The
    LFRC operations, the simulated heap and the reclamation baselines
    record into one of these registries; the DCAS substrate's counts are
    read from the substrate itself ({!add_source}); the experiment
    harness snapshots it next to each table.

    A registry is either {e enabled} (created by {!create}) or the shared
    {e disabled} singleton: on the disabled registry every recording
    operation is a single branch and touches nothing, so instrumentation
    can stay unconditionally in the hot paths ({!Lfrc_core.Lfrc}) at
    negligible cost when observability is off.

    Enabled registries are mutex-protected: exact under the simulator
    (single domain) and safe, if approximate in ordering, under real
    domains. Several environments may share one registry — the harness
    does exactly that to aggregate an experiment's sub-runs. *)

type t

val create : unit -> t
(** A fresh enabled registry with no series. *)

val disabled : t
(** The shared no-op registry: recording is a single branch, {!snapshot}
    is empty. This is what {!Lfrc_core.Env.create} uses by default. *)

val enabled : t -> bool

(** {2 Recording}

    Series are named by convention ["layer.event"], e.g.
    ["lfrc.load_retry"], ["heap.allocs"]. A series springs into existence
    on first use. All recording operations are no-ops on the disabled
    registry; on an enabled one, recording into an existing counter or
    gauge allocates nothing (a lock, a string hash and the update). *)

val incr : t -> string -> unit
(** Add 1 to a counter. *)

val add : t -> string -> int -> unit
(** Add an arbitrary amount to a counter. *)

val set_gauge : t -> string -> int -> unit
(** Set a gauge's current value; the registry also retains the maximum
    ever set (high-water mark). *)

val observe : t -> string -> float -> unit
(** Record one sample into a histogram series. *)

val add_source : t -> (unit -> (string * int) list) -> unit
(** Counter series kept by their owner and read at {!snapshot}: each
    source's nonzero values are added to the registry's own counters of
    the same name. A {!Lfrc_atomics.Dcas} substrate attaches its
    per-domain operation counts this way ([dcas.*], and [mcas.*] for
    software MCAS), so they are counted once, in the substrate, and
    several environments sharing a registry sum. No-op when disabled. *)

(** {2 Snapshots} *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * (int * int)) list;  (** name → (last, max) *)
  samples : (string * float array) list;
      (** histogram series, each sorted ascending *)
}

val snapshot : t -> snapshot
(** A consistent copy of the registry, sources included. The disabled
    registry snapshots to {!empty}. *)

val empty : snapshot

val is_empty : snapshot -> bool

val counter_value : snapshot -> string -> int
(** 0 when the series does not exist. *)

val gauge_value : snapshot -> string -> (int * int) option

val merge : snapshot -> snapshot -> snapshot
(** Pointwise union: counters add, gauges keep the latest last-value and
    the max of maxima, histogram samples concatenate. Used to aggregate
    snapshots taken from registries that could not be shared (e.g.
    separate chaos cells). *)

val to_json : snapshot -> string
(** A JSON object [{"counters": {...}, "gauges": {name: {"last","max"}},
    "histograms": {name: {"n","mean","p50","p90","p99","max"}}}].
    Histograms are summarized with {!Lfrc_util.Stats}. *)

val pp : Format.formatter -> snapshot -> unit
(** Compact human-readable rendering (one series per line). *)
