(* The traced instance is the same program: under the deterministic
   scheduler, a round through [Traced.Make (Lfrc_ops)] with its span
   buffers armed must take exactly the scheduler steps, substrate counters
   and heap statistics of the same round through plain [Lfrc_ops], for
   every benchmarked structure in every rc mode. *)

open Perfbench
module Plain = Lfrc_core.Lfrc_ops
module Traced_ops = Traced.Make (Lfrc_core.Lfrc_ops)
module Env = Lfrc_core.Env

module Pair (P : Drivers.S) (T : Drivers.S) = struct
  module Rp = Sim_run.Make (P)
  module Rt = Sim_run.Make (T)

  let compare ~rc_mode ~seed (spec : Drivers.spec) =
    let bufs () =
      Array.init (Array.length spec.streams) (fun _ -> Spans.create ())
    in
    let metrics = Lfrc_obs.Metrics.disabled in
    let a =
      Rp.round ~rc_mode ~metrics ~seed ~spec ~bufs:(bufs ())
        ~hist:(Hist.create ()) ~traced:false
    in
    let tbufs = bufs () in
    let b =
      Rt.round ~rc_mode ~metrics ~seed ~spec ~bufs:tbufs ~hist:(Hist.create ())
        ~traced:true
    in
    let spans = Spans.totals (Array.to_list tbufs) in
    let ok (r : Sim_run.round) = List.for_all snd r.checks in
    [
      ("steps", a.steps = b.steps);
      ("worker-steps", a.worker_steps = b.worker_steps);
      ("dcas-counters", a.dcas = b.dcas && a.dcas_start = b.dcas_start);
      ("heap-stats", a.heap = b.heap && a.heap_start = b.heap_start);
      ( "spans-recorded",
        spans.t_ops = b.ops && Array.exists (( < ) 0) spans.t_calls );
      ("plain-checks", ok a);
      ("traced-checks", ok b);
    ]
end

module Stack = Pair (Drivers.Stack (Plain)) (Drivers.Stack (Traced_ops))
module Queue = Pair (Drivers.Queue (Plain)) (Drivers.Queue (Traced_ops))
module Set = Pair (Drivers.Set (Plain)) (Drivers.Set (Traced_ops))
module Dlist = Pair (Drivers.Dlist (Plain)) (Drivers.Dlist (Traced_ops))
module Deque = Pair (Drivers.Deque (Plain)) (Drivers.Deque (Traced_ops))

let modes =
  [
    ("eager", Env.Eager);
    ("deferred-64", Env.Deferred_rc { epoch = 64 });
    ("wait-free-64", Env.Wait_free { weight = 64 });
  ]

(* Every (structure, mode, comparison) with its verdict. *)
let run ~seed =
  let workers = 3 and len = 200 in
  let cases =
    [
      ("treiber", Stack.compare, Drivers.stack_churn ~seed ~workers ~len);
      ("msqueue", Queue.compare, Drivers.queue_pairs ~seed ~workers ~len);
      ( "skiplist",
        Set.compare,
        Drivers.set_mix ~contains_pct:90 ~seed ~workers ~len ~range:256 );
      ( "dlist-set",
        Dlist.compare,
        Drivers.set_mix ~contains_pct:50 ~seed ~workers ~len ~range:64 );
      ( "snark-fixed",
        Deque.compare,
        Drivers.deque_balanced ~seed ~workers ~len ~n_prefill:16 );
    ]
  in
  List.concat_map
    (fun (s, cmp, spec) ->
      List.concat_map
        (fun (m, rc_mode) ->
          List.map
            (fun (what, ok) -> (Printf.sprintf "%s/%s/%s" s m what, ok))
            (cmp ~rc_mode ~seed spec))
        modes)
    cases

let () =
  let results = run ~seed:20011 in
  let failed = List.filter (fun (_, ok) -> not ok) results in
  List.iter (fun (what, _) -> Printf.printf "MISMATCH %s\n" what) failed;
  Printf.printf "identity: %d/%d comparisons equal\n"
    (List.length results - List.length failed)
    (List.length results);
  if failed <> [] then exit 1
