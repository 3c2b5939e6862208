module Cell = Lfrc_simmem.Cell
module Sched = Lfrc_sched.Sched
module Owned = Lfrc_sched.Owned
module Metrics = Lfrc_obs.Metrics
module Tracer = Lfrc_obs.Tracer
module Profile = Lfrc_obs.Profile
module Blame = Lfrc_obs.Blame
module Shadow = Lfrc_sanitize.Shadow

type impl = Atomic_step | Striped_lock | Software_mcas

type counters = {
  reads : int;
  writes : int;
  rmw_ops : int;
  cas_attempts : int;
  cas_failures : int;
  dcas_attempts : int;
  dcas_failures : int;
  spurious_cas : int;
  spurious_dcas : int;
  max_cas_failure_streak : int;
  max_dcas_failure_streak : int;
}

type injector = { inject_cas : unit -> bool; inject_dcas : unit -> bool }

(* One counter block per domain, written only by its owner with plain
   stores (no lock, no atomic RMW) and summed by [counters]. Under the
   simulator every thread runs on one domain and so shares one block,
   which keeps the counts and the failure streaks exactly as one shared
   counter would. A streak is the current run of consecutive failed
   attempts; its maximum is the livelock signal the chaos watchdog
   reports. *)
let k_reads = 0 and k_writes = 1 and k_rmw = 2 and k_cas = 3
let k_cas_fail = 4 and k_dcas = 5 and k_dcas_fail = 6
let k_sp_cas = 7 and k_sp_dcas = 8
let k_cas_streak = 9 and k_cas_streak_max = 10
let k_dcas_streak = 11 and k_dcas_streak_max = 12
let n_slots = 13

type t = {
  kind : impl;
  stripes : Mutex.t array; (* used by Striped_lock only *)
  mutable injector : injector option;
  blocks : int array Owned.t;
  mutable metrics : Metrics.t;
  mutable tracer : Tracer.t;
  mutable profile : Profile.t;
  mutable blame : Blame.t; (* contention causality; one branch when off *)
  mutable san : Shadow.t; (* shadow-memory sanitizer; one branch when off *)
}

let n_stripes = 64

let create kind =
  {
    kind;
    stripes = Array.init n_stripes (fun _ -> Mutex.create ());
    injector = None;
    blocks = Owned.create (fun () -> Array.make n_slots 0);
    metrics = Metrics.disabled;
    tracer = Tracer.disabled;
    profile = Profile.disabled;
    blame = Blame.disabled;
    san = Shadow.disabled;
  }

let bump t k =
  let b = Owned.get t.blocks (Sched.domain_id ()) in
  b.(k) <- b.(k) + 1

let set_injector t i = t.injector <- i

let attach_obs ?(profile = Profile.disabled) ?(blame = Blame.disabled) t
    ~metrics ~tracer =
  t.metrics <- metrics;
  t.tracer <- tracer;
  t.profile <- profile;
  t.blame <- blame;
  if t.kind = Software_mcas then Mcas.set_metrics metrics

let attach_sanitizer t san = t.san <- san

let impl t = t.kind

let impl_name t =
  match t.kind with
  | Atomic_step -> "atomic-step"
  | Striped_lock -> "striped-lock"
  | Software_mcas -> "software-mcas"

let stripe t c = t.stripes.(Cell.id c land (n_stripes - 1))

(* [f c a b] under [c]'s stripe. The stripe is released on the normal
   and the exceptional path alike, and a closed [f] allocates nothing. *)
let with_stripe t c f a b =
  let m = stripe t c in
  Mutex.lock m;
  match f c a b with
  | r ->
      Mutex.unlock m;
      r
  | exception e ->
      Mutex.unlock m;
      raise e

(* Indivisible between yield points under the simulator: simulated
   hardware DCAS. Under both stripes: the striped-lock DCAS. *)
let dcas_words c0 c1 old0 old1 new0 new1 =
  let ok = Cell.get c0 = old0 && Cell.get c1 = old1 in
  if ok then begin
    Cell.set c0 new0;
    Cell.set c1 new1
  end;
  ok

let unlock_two t lo hi =
  if hi <> lo then Mutex.unlock t.stripes.(hi);
  Mutex.unlock t.stripes.(lo)

let with_two_stripes t c0 c1 old0 old1 new0 new1 =
  let i0 = Cell.id c0 land (n_stripes - 1)
  and i1 = Cell.id c1 land (n_stripes - 1) in
  let lo = min i0 i1 and hi = max i0 i1 in
  Mutex.lock t.stripes.(lo);
  if hi <> lo then Mutex.lock t.stripes.(hi);
  match dcas_words c0 c1 old0 old1 new0 new1 with
  | ok ->
      unlock_two t lo hi;
      ok
  | exception e ->
      unlock_two t lo hi;
      raise e

let read t c =
  Sched.point ();
  bump t k_reads;
  Metrics.incr t.metrics "dcas.reads";
  let v =
    match t.kind with
    | Atomic_step | Striped_lock -> Cell.get c
    | Software_mcas -> Mcas.read c
  in
  Shadow.on_read t.san c v;
  v

let write t c v =
  Sched.point ();
  bump t k_writes;
  Metrics.incr t.metrics "dcas.writes";
  (match t.kind with
  | Atomic_step -> Cell.set c v
  | Striped_lock -> with_stripe t c (fun c v () -> Cell.set c v) v ()
  | Software_mcas ->
      (* A blind write must still cooperate with in-flight descriptors. *)
      let rec go () = if not (Mcas.cas c (Mcas.read c) v) then go () in
      go ());
  Shadow.on_write t.san c v;
  Blame.stamp t.blame Blame.Write (Cell.id c)

(* One attempt; a failure extends the current streak. *)
let count t ~n ~fail ~streak ~top ok =
  let b = Owned.get t.blocks (Sched.domain_id ()) in
  b.(n) <- b.(n) + 1;
  if ok then b.(streak) <- 0
  else begin
    b.(fail) <- b.(fail) + 1;
    b.(streak) <- b.(streak) + 1;
    b.(top) <- max b.(top) b.(streak)
  end

let count_cas t ok =
  count t ~n:k_cas ~fail:k_cas_fail ~streak:k_cas_streak ~top:k_cas_streak_max
    ok;
  Metrics.incr t.metrics "dcas.cas_attempts";
  if not ok then begin
    Metrics.incr t.metrics "dcas.cas_failures";
    Tracer.emit t.tracer Retry "cas";
    Profile.dcas_retry t.profile
  end;
  ok

(* A spurious failure reports false without comparing or writing anything —
   the LL/SC-style failure mode every LFRC retry loop must compensate for
   (dropping its speculative count increments before trying again). *)
let spurious_cas t =
  match t.injector with
  | Some i when i.inject_cas () ->
      bump t k_sp_cas;
      Metrics.incr t.metrics "dcas.spurious_cas";
      Tracer.emit t.tracer Fault "spurious-cas";
      ignore (count_cas t false);
      true
  | _ -> false

let spurious_dcas t =
  match t.injector with
  | Some i when i.inject_dcas () ->
      bump t k_sp_dcas;
      Metrics.incr t.metrics "dcas.spurious_dcas";
      Tracer.emit t.tracer Fault "spurious-dcas";
      true
  | _ -> false

let cas t c old_v new_v =
  Sched.point ();
  if spurious_cas t then begin
    Blame.charge_spurious t.blame Blame.Cas;
    false
  end
  else begin
    let ok =
      match t.kind with
      | Atomic_step -> Cell.cas c old_v new_v
      | Striped_lock -> with_stripe t c Cell.cas old_v new_v
      | Software_mcas -> Mcas.cas c old_v new_v
    in
    Shadow.on_cas t.san c ~old_v ~new_v ~ok;
    if ok then Blame.stamp t.blame Blame.Cas (Cell.id c)
    else Blame.charge t.blame Blame.Cas (Cell.id c);
    count_cas t ok
  end

let fetch_add t c d =
  Sched.point ();
  bump t k_rmw;
  Metrics.incr t.metrics "dcas.rmw";
  let v =
    match t.kind with
    | Atomic_step -> Cell.fetch_and_add c d
    | Striped_lock ->
        with_stripe t c (fun c d () -> Cell.fetch_and_add c d) d ()
    | Software_mcas ->
        let rec go () =
          let v = Mcas.read c in
          if Mcas.cas c v (v + d) then v else go ()
        in
        go ()
  in
  Shadow.on_rmw t.san c;
  Blame.stamp t.blame Blame.Rmw (Cell.id c);
  v

let count_dcas t ok =
  count t ~n:k_dcas ~fail:k_dcas_fail ~streak:k_dcas_streak
    ~top:k_dcas_streak_max ok;
  Metrics.incr t.metrics "dcas.dcas_attempts";
  if not ok then begin
    Metrics.incr t.metrics "dcas.dcas_failures";
    Tracer.emit t.tracer Retry "dcas";
    Profile.dcas_retry t.profile
  end;
  ok

let dcas t c0 c1 ~old0 ~old1 ~new0 ~new1 =
  Sched.point ();
  if spurious_dcas t then begin
    Blame.charge_spurious t.blame Blame.Dcas;
    count_dcas t false
  end
  else begin
    let ok =
      match t.kind with
      | Atomic_step -> dcas_words c0 c1 old0 old1 new0 new1
      | Striped_lock -> with_two_stripes t c0 c1 old0 old1 new0 new1
      | Software_mcas -> Mcas.dcas c0 c1 old0 old1 new0 new1
    in
    Shadow.on_dcas t.san c0 c1 ~old0 ~old1 ~new0 ~new1 ~ok;
    if Blame.enabled t.blame then
      if ok then begin
        Blame.stamp t.blame Blame.Dcas (Cell.id c0);
        Blame.stamp t.blame Blame.Dcas (Cell.id c1)
      end
      else begin
        (* The culprit cell is whichever word failed its compare; a raw
           peek (no Sched.point) keeps the schedule identical to a
           blame-free run. With both words stale, blaming the first is
           still a true cause. *)
        let cid =
          if Cell.get c0 <> old0 then Cell.id c0 else Cell.id c1
        in
        Blame.charge t.blame Blame.Dcas cid
      end;
    count_dcas t ok
  end

let counters t =
  let sum k = Owned.fold (fun n b -> n + b.(k)) t.blocks 0 in
  let top k = Owned.fold (fun n b -> max n b.(k)) t.blocks 0 in
  {
    reads = sum k_reads;
    writes = sum k_writes;
    rmw_ops = sum k_rmw;
    cas_attempts = sum k_cas;
    cas_failures = sum k_cas_fail;
    dcas_attempts = sum k_dcas;
    dcas_failures = sum k_dcas_fail;
    spurious_cas = sum k_sp_cas;
    spurious_dcas = sum k_sp_dcas;
    max_cas_failure_streak = top k_cas_streak_max;
    max_dcas_failure_streak = top k_dcas_streak_max;
  }

let reset_counters t =
  Owned.fold (fun () b -> Array.fill b 0 n_slots 0) t.blocks ()
