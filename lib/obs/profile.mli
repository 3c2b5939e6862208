(** Call-site contention and latency profiling.

    Every instrumented operation span ("site": "lfrc.load",
    "lfrc.destroy", …) opens a frame on the {!Obs} spine's per-thread
    stack; CAS/DCAS failures and operation-loop retries that happen
    underneath charge the innermost open frame. Closing the frame
    accumulates into a per-site registry — calls, retries, failed DCAS
    attempts, scheduler steps spent — and observes the per-call burst
    into the {!Metrics}
    histograms ([<site>.retries], [<site>.steps],
    [dcas.retries.<site>]), zeros included, so the histograms are
    populated deterministically rather than only under contention.

    Latency is measured in {!Lfrc_sched.Sched.steps_so_far} deltas — the
    deterministic interleaving clock — so a profile replays identically
    under the same seed. Outside a simulation steps are 0; retry and
    call counts still accumulate.

    The disabled profiler follows the disabled {!Metrics} singleton
    pattern: every entry point is a single branch. *)

type t

val create : ?metrics:Metrics.t -> unit -> t
(** A fresh enabled profiler. Per-call bursts are observed into
    [metrics] histograms when given (the registry the harness already
    snapshots); default {!Metrics.disabled} keeps only the site table. *)

val disabled : t
(** The shared no-op profiler: every call is a single branch. *)

val enabled : t -> bool

(** {1 Attribution}

    Open frames live on {!Obs}'s per-thread stack; the profiler only
    aggregates what the spine hands it. *)

val finish :
  t -> string -> start_step:int -> retries:int -> dcas_retries:int -> unit
(** A call of site [label], opened at scheduler step [start_step], has
    completed after [retries] loop re-runs and [dcas_retries] failed
    CAS/DCAS attempts: accumulate into the site registry and observe the
    call's bursts into the metrics histograms. *)

val unattributed : t -> retries:int -> dcas_retries:int -> unit
(** Charge retries or failed attempts that happened with no frame open
    on their thread to the ["(unattributed)"] site. *)

(** {1 Reporting} *)

type row = {
  r_site : string;
  r_calls : int;
  r_retries : int;
  r_dcas_retries : int;
  r_wasted : int;  (** [r_retries + r_dcas_retries]: attempts thrown away *)
  r_steps_total : int;
  r_steps_max : int;
}

val rows : t -> row list
(** Per-site totals, most wasted attempts first (ties by site name).
    ["(unattributed)"] appears only when something was charged to it. *)

val table : t -> string
(** The contention table as aligned text: site, calls, retries, dcas,
    wasted, mean steps/op, max steps. *)

val to_json : t -> string
(** [{"sites":[...]}] with one record per {!row}, same order as
    {!rows}. *)
