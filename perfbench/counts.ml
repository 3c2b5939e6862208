(* Arithmetic on substrate counter snapshots, for deltas around a timed
   window and sums over windows. The streak maxima are not additive;
   nothing reads them from a delta. *)

module Dcas = Lfrc_atomics.Dcas

let zero : Dcas.counters =
  {
    reads = 0;
    writes = 0;
    rmw_ops = 0;
    cas_attempts = 0;
    cas_failures = 0;
    dcas_attempts = 0;
    dcas_failures = 0;
    spurious_cas = 0;
    spurious_dcas = 0;
    max_cas_failure_streak = 0;
    max_dcas_failure_streak = 0;
  }

let map2 f (a : Dcas.counters) (b : Dcas.counters) : Dcas.counters =
  {
    reads = f a.reads b.reads;
    writes = f a.writes b.writes;
    rmw_ops = f a.rmw_ops b.rmw_ops;
    cas_attempts = f a.cas_attempts b.cas_attempts;
    cas_failures = f a.cas_failures b.cas_failures;
    dcas_attempts = f a.dcas_attempts b.dcas_attempts;
    dcas_failures = f a.dcas_failures b.dcas_failures;
    spurious_cas = f a.spurious_cas b.spurious_cas;
    spurious_dcas = f a.spurious_dcas b.spurious_dcas;
    max_cas_failure_streak =
      max a.max_cas_failure_streak b.max_cas_failure_streak;
    max_dcas_failure_streak =
      max a.max_dcas_failure_streak b.max_dcas_failure_streak;
  }

(* [sub after before] *)
let sub = map2 ( - )
let add = map2 ( + )

(* Substrate primitives: each is one scheduler step under the simulator. *)
let primitives (d : Dcas.counters) =
  d.reads + d.writes + d.cas_attempts + d.dcas_attempts + d.rmw_ops
