(* The observability spine: the sinks under one master switch, and the
   one per-thread stack of open op frames they all read. [Lfrc.span]
   pushes one frame here and every sink takes the label (or, for the
   profiler, the whole popped frame) from it. Frames are pushed only
   when something reads them ([framed]); metrics-only and obs-off runs
   never touch the stack.

   [create ~master:false] returns the all-disabled bundle no matter what
   the per-layer flags say, which makes the disabled path exactly one
   branch per layer everywhere (each layer already pattern-matches its
   own Disabled constructor). *)

module Sched = Lfrc_sched.Sched
module Owned = Lfrc_sched.Owned

type frame = {
  label : string;
  start_step : int;
  mutable retries : int;  (* operation-loop re-runs *)
  mutable dcas_retries : int;  (* failed CAS/DCAS attempts underneath *)
}

type frames = frame list ref Owned.t

type t = {
  metrics : Metrics.t;
  tracer : Tracer.t;
  lineage : Lineage.t;
  profile : Profile.t;
  blame : Blame.t;
  framed : bool;
  frames : frames;
}

let make ?(frames = false) ?(metrics = Metrics.disabled)
    ?(tracer = Tracer.disabled) ?(lineage = Lineage.disabled)
    ?(profile = Profile.disabled) ?(blame = Blame.disabled) () =
  {
    metrics;
    tracer;
    lineage;
    profile;
    blame;
    framed =
      frames || Tracer.enabled tracer || Lineage.enabled lineage
      || Profile.enabled profile || Blame.enabled blame;
    frames = Owned.create (fun () -> ref []);
  }

let disabled = make ()

let enabled t = t.framed || Metrics.enabled t.metrics

let create ?(master = true) ?(metrics = true) ?(trace_capacity = 0)
    ?(lineage_ring = 0) ?(profile = false) ?(blame = false) () =
  if not master then disabled
  else
    let metrics = if metrics then Metrics.create () else Metrics.disabled in
    let tracer = Tracer.create ~capacity:trace_capacity in
    let lineage =
      if lineage_ring > 0 then Lineage.create ~ring:lineage_ring ()
      else Lineage.disabled
    in
    let profile = if profile then Profile.create ~metrics () else Profile.disabled in
    let blame = if blame then Blame.create ~tracer () else Blame.disabled in
    make ~metrics ~tracer ~lineage ~profile ~blame ()

(* The calling thread's stack. Only its owner pushes and pops. *)
let stack t = Owned.get t.frames (Sched.self ())

let op_begin t label =
  Tracer.emit t.tracer Begin label;
  let s = stack t in
  s :=
    { label; start_step = Sched.steps_so_far (); retries = 0; dcas_retries = 0 }
    :: !s

(* The End event carries the span's own name: a fiber unwound by the
   scheduler's cleanup runs this outside any simulated thread, where
   there is no frame to pop but the trace still closes the span. *)
let op_end t label =
  let s = stack t in
  (match !s with
  | f :: rest ->
      s := rest;
      Blame.op_end t.blame ~site:f.label;
      Profile.finish t.profile f.label ~start_step:f.start_step
        ~retries:f.retries ~dcas_retries:f.dcas_retries
  | [] -> ());
  Tracer.emit t.tracer End label

let retry t name =
  Tracer.emit t.tracer Retry name;
  if t.framed then
    match !(stack t) with
    | f :: _ -> f.retries <- f.retries + 1
    | [] -> Profile.unattributed t.profile ~retries:1 ~dcas_retries:0

let dcas_retry t name =
  Tracer.emit t.tracer Retry name;
  if t.framed then
    match !(stack t) with
    | f :: _ -> f.dcas_retries <- f.dcas_retries + 1
    | [] -> Profile.unattributed t.profile ~retries:0 ~dcas_retries:1

let fault t name = Tracer.emit t.tracer Fault name

let add_counters t f = Metrics.add_source t.metrics f

let label_or t none =
  if not t.framed then none
  else match !(stack t) with f :: _ -> f.label | [] -> none

let current_op t = label_or t "(unattributed)"

let record t ~addr kind =
  if Lineage.enabled t.lineage then
    Lineage.record t.lineage ~op:(label_or t "?") ~addr kind

(* Builds the event only when lineage is on: the count paths call this
   on every transition. *)
let record_rc t ~addr ~old_rc ~delta =
  if Lineage.enabled t.lineage then record t ~addr (Rc { old_rc; delta })

let stamp t kind cell =
  if Blame.enabled t.blame then
    Blame.stamp t.blame ~site:(current_op t) kind cell

let charge t kind cell =
  if Blame.enabled t.blame then
    Blame.charge t.blame ~site:(current_op t) kind cell

let charge_spurious t kind =
  if Blame.enabled t.blame then
    Blame.charge_spurious t.blame ~site:(current_op t) kind

(* A crashed thread never pops its frames: take them off its stack and
   hand the count to blame, which also closes the thread's retry chain.
   Idempotent per thread. *)
let adopt t ~crashed =
  let frames =
    List.fold_left
      (fun n tid ->
        match Owned.find t.frames tid with
        | Some s ->
            let k = List.length !s in
            s := [];
            n + k
        | None -> n)
      0 crashed
  in
  Blame.adopt t.blame ~crashed ~frames

let open_frames t = Owned.fold (fun n s -> n + List.length !s) t.frames 0
