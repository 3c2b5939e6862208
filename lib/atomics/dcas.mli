(** The DCAS substrate: the paper's assumed hardware double
    compare-and-swap (as on the Motorola 68020/68040 [CAS2]), with
    single-word companions. Every operation is a scheduler yield point, so
    algorithms built on this layer can be model-checked and simulated
    without change.

    Three interchangeable implementations:

    - [Atomic_step]: relies on the deterministic scheduler — between two
      yield points a simulated thread runs alone, so the two-word update is
      indivisible by construction. Only valid inside [Sched.run].
    - [Striped_lock]: hashes the two cells onto a fixed array of mutexes
      acquired in cell-id order. Models an atomic hardware unit for real
      multi-domain runs; not lock-free, exactly as real [malloc] is not
      (the paper's footnote 1 draws the same boundary). A stripe is
      released on every exit, including a {!Lfrc_simmem.Cell.Corruption}
      raised by a write to freed memory. With observability detached, the
      stripes are the only shared state an operation writes besides its
      target cells (counters are per domain, see {!counters}).
    - [Software_mcas]: the lock-free {!Mcas} substrate. Lock-free, but
      writes descriptors into target cells and therefore must not be used
      under LFRC itself (see {!Mcas}); provided for the E5 ablation.

    DCAS semantics follow the paper's Section 2.2: compare both locations,
    swap both or neither, return whether it succeeded. *)

type impl = Atomic_step | Striped_lock | Software_mcas

type t

val create : impl -> t
val impl : t -> impl
val impl_name : t -> string

val read : t -> Lfrc_simmem.Cell.t -> int
val write : t -> Lfrc_simmem.Cell.t -> int -> unit
val cas : t -> Lfrc_simmem.Cell.t -> int -> int -> bool

val fetch_add : t -> Lfrc_simmem.Cell.t -> int -> int
(** Atomic add returning the previous value; the paper's [add_to_rc] is a
    CAS loop, which we also provide in {!Lfrc}, but the substrate-level
    primitive is used by baselines. *)

val dcas :
  t ->
  Lfrc_simmem.Cell.t ->
  Lfrc_simmem.Cell.t ->
  old0:int ->
  old1:int ->
  new0:int ->
  new1:int ->
  bool

type counters = {
  reads : int;
  writes : int;
  rmw_ops : int;
      (** fetch-and-add operations — the wait-free weighted-rc hot path
          ([dcas.rmw] in an attached metrics registry) *)
  cas_attempts : int;
  cas_failures : int;
  dcas_attempts : int;
  dcas_failures : int;
  spurious_cas : int;  (** injected CAS failures (counted in [cas_failures]) *)
  spurious_dcas : int;
      (** injected DCAS failures (counted in [dcas_failures]) *)
  max_cas_failure_streak : int;
      (** longest run of consecutive failed CAS attempts on one domain —
          retry/livelock telemetry (see {!counters}) *)
  max_dcas_failure_streak : int;
}

val counters : t -> counters
(** Operation counters, used as the "simulated work" metric by the
    experiment harness. Each domain counts into its own block with plain
    stores — no lock and no atomic operation per primitive — and this sums
    the blocks. The sums are exact at quiescence: under the simulator (all
    simulated threads share one domain, hence one block) and on real
    domains once the counting domains have been joined or have otherwise
    synchronised with the reader. Read while other domains run, they may
    lag. The two streak maxima are per-domain: the longest run of
    consecutive failures on any one domain, the maximum over blocks. A
    domain that takes over an exited domain's identity
    ({!Lfrc_sched.Sched.domain_id}) continues its block. *)

val reset_counters : t -> unit
(** Zero every domain's block, streaks included. Quiescent use, like
    {!counters}. *)

(** {2 Fault injection}

    An installed injector is consulted on every [cas]/[dcas]; answering
    [true] makes that attempt fail {e spuriously}: nothing is compared or
    written and the operation reports failure, exactly the LL/SC-style
    false-negative the paper's retry loops must tolerate. Spurious
    failures still count as attempts and failures, and additionally as
    [spurious_cas]/[spurious_dcas]. *)

type injector = { inject_cas : unit -> bool; inject_dcas : unit -> bool }

val set_injector : t -> injector option -> unit

(** {2 Observability}

    The attached spine ({!Lfrc_obs.Obs}) gets every failed attempt as a
    [Retry] tracer event charged to the innermost op frame open on the
    failing thread ({!Lfrc_obs.Obs.dcas_retry}) and every injected
    failure as a [Fault] event; with blame on, each successful
    write/CAS/DCAS/RMW stamps its cell(s) with the winner and each failed
    compare is charged to the stamped culprit ({!Lfrc_obs.Blame}) — on a
    failed DCAS the culprit is whichever word failed its compare.

    Operations are counted once, in the per-domain blocks behind
    {!counters}. Attaching a bundle whose metrics registry is enabled
    makes that registry read the [dcas.*] series ([dcas.reads],
    [dcas.writes], [dcas.rmw], [dcas.cas_attempts], [dcas.cas_failures],
    [dcas.dcas_attempts], [dcas.dcas_failures], [dcas.spurious_cas],
    [dcas.spurious_dcas]) from these blocks at snapshot — and, for
    [Software_mcas], [mcas.attempt]/[mcas.success]/[mcas.fail], which are
    the non-spurious DCAS attempts, the successes and the non-spurious
    failures. Zero series are left out, so a snapshot lists what
    happened. The counts run from {!create} (or {!reset_counters}), so
    attach before the first operation, as
    {!Lfrc_core.Env.create} does. Detached (the default) the cost is one
    branch per event. *)

val attach_obs : t -> Lfrc_obs.Obs.t -> unit

val attach_sanitizer : t -> Lfrc_sanitize.Shadow.t -> unit
(** Route every read/write/CAS/DCAS through the shadow-memory sanitizer's
    access hooks (after the operation resolves, so the hook sees the
    outcome). Spurious injected failures are not reported — they touch no
    memory. Detached (the default, {!Lfrc_sanitize.Shadow.disabled}) the
    cost is one branch per operation. *)
