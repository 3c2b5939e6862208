(** Contention causality: attribute every failed CAS/DCAS to the winning
    write that invalidated it.

    Each successful shared-memory write stamps its cell with the writer's
    (thread, call site, op kind, scheduler step). A failed compare then
    charges one wasted attempt to the (victim site, culprit site) pair —
    under the deterministic scheduler this attribution is exact, because
    the stamp is updated in the same atomic step as the write and threads
    interleave only at scheduler points.

    Aggregates: a site×site interference matrix (wasted attempts +
    scheduler-step staleness per pair), per-site retry-chain statistics
    (the critical path of contended operations), and per-object charge
    counts on cells bound via {!bind_owner} (reference-count cells), which
    the report joins with lineage to name the contended object family.

    Like the other observability layers, {!disabled} makes every hook a
    single branch; the registry writes nothing to [Metrics], so counter
    snapshots are byte-identical with blame on or off. *)

type t

(** The op kind recorded in a stamp and reported per culprit. *)
type op_kind = Write | Cas | Dcas | Rmw

val create : ?tracer:Tracer.t -> unit -> t
(** Fresh registry. When [tracer] is live, each attributed failure also
    emits a flow-event pair (culprit's winning write → doomed attempt)
    visible as arrows in chrome://tracing. *)

val disabled : t
val enabled : t -> bool

val new_run : t -> unit
(** Start a new run: clear per-cell stamps and owner bindings (cell ids
    restart per heap, so stale stamps must not cross environments) and
    open retry chains. Aggregated pairs/chains/totals survive. Called by
    [Env.create] when a blame registry is attached. *)

(** Call sites are the {!Obs} spine's innermost open op label on the
    calling thread (["(unattributed)"] outside any op); the spine passes
    them in as [~site]. *)

val op_end : t -> site:string -> unit
(** The calling thread's innermost op [site] ended: closes the thread's
    retry chain if that op opened it (the op gave up without a winning
    write). *)

val bind_owner : t -> cell:int -> addr:int -> unit
(** Mark [cell] as belonging to object [addr] (used for rc cells), so
    charges on it count as rc contention and name the object. *)

val stamp : t -> site:string -> op_kind -> int -> unit
(** Record a successful write to cell id [int] by the calling thread;
    also closes the thread's open retry chain (its op went through). *)

val charge : t -> site:string -> op_kind -> int -> unit
(** Record a failed CAS/DCAS whose compare lost to the last write on the
    given cell id; [op_kind] is only used when the cell has no stamp. *)

val charge_spurious : t -> site:string -> op_kind -> unit
(** Record an injected (fault-plan) failure: no real write won, charged
    to the reserved ["(fault-injection)"] culprit. *)

val adopt : t -> crashed:int list -> frames:int -> int * int
(** Fold crashed threads' pending state into the aggregates: the
    [frames] open op frames {!Obs.adopt} took off their spine stacks, and
    their open retry chains. Returns [(frames, chains)] adopted. *)

val pending : t -> int
(** Open retry chains across all threads (0 after clean runs and after
    {!adopt}). *)

(** {2 Aggregate access (tests, bench JSON)} *)

type row = {
  b_victim : string;
  b_culprit : string;
  b_wasted : int;  (** failed attempts charged to the pair *)
  b_steps : int;  (** summed staleness: failure step − culprit write step *)
  b_rc : int;  (** charges on owner-bound (rc) cells *)
  b_kinds : (string * int) list;  (** culprit op kinds, nonzero only *)
  b_addrs : (int * int) list;  (** (owner addr, charges), busiest first *)
}

type chain_row = {
  c_site : string;
  c_chains : int;
  c_adopted : int;
  c_len_total : int;
  c_len_max : int;
  c_steps_total : int;
}

val rows : t -> row list
(** All pairs, worst first; ordering is total, so identical runs produce
    identical lists. *)

val chain_rows : t -> chain_row list
val total_wasted : t -> int
val rc_wasted : t -> int

val top_rc_pair : t -> (string * string * float) option
(** The pair with the most rc-cell charges and its percentage share of
    all rc-cell charges. *)

val adopted : t -> int * int
(** Totals of adopted (frames, chains). *)

(** {2 Rendering} *)

val matrix : t -> string
(** Victim × culprit wasted-attempt matrix, fixed column order. *)

val report :
  ?top:int ->
  ?namer:(int -> string option) ->
  ?lineage:Lineage.t ->
  t ->
  string
(** Ranked victim→culprit report. [namer] maps an object address to its
    layout family; [lineage] names the last recorded event per object. *)

val to_json :
  ?namer:(int -> string option) -> ?lineage:Lineage.t -> t -> string
(** Machine-readable dump: totals, sorted pairs (with per-pair op kinds
    and top objects), and per-site chain stats. Byte-deterministic for a
    given run. *)
