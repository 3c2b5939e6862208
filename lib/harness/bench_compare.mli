(** The diff engine behind [bench --compare] and its [--explain] mode.

    Pure over parsed {!Lfrc_util.Json} documents (two bench JSON files:
    current run vs committed baseline) so the gating policy is testable
    against hand-edited baselines without touching the filesystem.

    Gating policy:
    - ops/sec on a matched workload regressing beyond [threshold] gates
      (wall-clock is noisy; callers default the threshold to 30%);
    - matched counters drifting >= 5% gate — counters are deterministic
      under the simulated scheduler, so drift is a behavior change;
    - matched histograms gate on their ["n"] field (observation count,
      equally deterministic) with the same 5% rule; derived statistics
      (mean/percentiles) are never compared;
    - anything absent from the baseline — a new workload, a new counter,
      a {e new histogram key} — is reported but never gates, so adding an
      instrument does not force a baseline regeneration in the same
      commit. *)

val default_current : string
(** ["BENCH_current.json"]: where [bench --json] writes a fresh run when
    given no file, and what [bench --compare] reads as the current run
    unless [--current] names another. Not committed. *)

val default_baseline : string
(** The newest committed baseline, ["BENCH_pr10.json"]: what
    [bench --compare] diffs against when given no baseline. Never equal
    to {!default_current}, so a fresh run cannot overwrite it and the
    gate never compares a baseline with itself. *)

type row = {
  name : string;
  base_ops : float option;
  cur_ops : float option;
  pct : float option;  (** ops/sec delta %, when both sides have it *)
  is_new : bool;  (** workload absent from the baseline *)
  regressed : bool;
}

type drift = {
  workload : string;
  key : string;  (** counter name, or histogram name (compared on "n") *)
  base : float;
  cur : float;
  pct : float;
}

type verdict = {
  rows : row list;  (** every workload of the current run, in file order *)
  counter_drift : drift list;  (** gates *)
  counter_new : (string * string * float) list;
      (** (workload, counter, value) — report-only *)
  hist_drift : drift list;  (** histogram "n" drift — gates *)
  hist_new : (string * string) list;  (** (workload, histogram) — report-only *)
  regressions : (string * float) list;  (** (workload, ops/sec %) — gates *)
}

val diff : threshold:float -> current:Lfrc_util.Json.t -> baseline:Lfrc_util.Json.t -> verdict
val ok : verdict -> bool
(** No regression, no counter drift, no histogram drift. New
    workloads/counters/histograms do not affect [ok]. *)

val passes : report_only:bool -> verdict -> bool
(** The gate's answer: {!ok}, except that [report_only] forgives ops/sec
    regressions — wall-clock is noisy — and only them. Counter and
    histogram-[n] drift are deterministic behaviour changes and fail in
    either mode. *)

val render :
  threshold:float -> current_file:string -> baseline_file:string -> verdict -> string
(** The comparison table plus drift sections and the final PASS/FAIL
    lines, ready to print. *)

val explain :
  current:Lfrc_util.Json.t -> baseline:Lfrc_util.Json.t -> verdict -> string
(** [--explain]: for each regressed workload, rank what moved underneath
    it — all counters (not just the gated set), histogram observation
    counts, the contention profiler's per-site wasted attempts, and the
    blame layer's victim -> culprit pairs (marked report-only when the
    baseline predates blame). Ranks movers; does not prove causation.
    With no regressions, names the single largest ops/sec mover if it
    shifted >= 1%. *)
