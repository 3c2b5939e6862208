(* The benchmark driver: one workload, one seed, one run.

     lfrc_bench.exe --workload W --seed N --seconds S --trace 0|1
       [--git-rev REV]

   With --trace 0 it prints the end-to-end metrics of an untraced run; with
   --trace 1 it runs untraced and traced windows and prints the per-layer
   metrics. Comment lines (#) carry the run metadata, every output check
   and every metric; the last line is the JSON result. NOTES.md documents
   the workloads and the metrics. *)

open Perfbench
module Env = Lfrc_core.Env
module Dcas = Lfrc_atomics.Dcas
module Heap = Lfrc_simmem.Heap
module Metrics = Lfrc_obs.Metrics
module Plain = Lfrc_core.Lfrc_ops
module Traced_ops = Traced.Make (Lfrc_core.Lfrc_ops)

let workers = 2
let sim_workers = 4

(* A real-domain run is [segments] windows, each on a fresh structure
   built from its own sub-seed ([seed * segments + j]) and on fresh worker
   domains: one skip-list shape or one placement of the domains on the
   cores would otherwise decide a whole run's figures. *)
let segments = 4
let setups_per_segment = 3

(* Stream length per real-domain worker for a segment, from about twice
   the per-worker rate measured on a 2-core x86-64 box, so a worker does
   not run out before the deadline (an exhausted stream is reported in the
   metadata and ends that worker's window early). *)
let stream_len ~per_s ~seconds =
  int_of_float (float_of_int per_s *. seconds /. float_of_int segments) + 1

(* --- metrics and output --- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let per n d = if d = 0 then 0. else float_of_int n /. float_of_int d

(* Share of [base] throughput lost in [x], in percent. *)
let loss_pct ~base x = if base = 0. then 0. else 100. *. (base -. x) /. base

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      a.(Array.length a / 2)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
             (json_num x.value) x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let latency_metrics hist =
  let us q = Hist.quantile hist q /. 1e3 in
  [ m "op_p50_us" "us" (us 0.5); m "op_p99_us" "us" (us 0.99) ]

(* Per-layer figures shared by both kinds of workload. *)
let layer_metrics ~ops ~(spans : Spans.totals) ~(dcas : Dcas.counters)
    ~allocs ~frees ~peak_live ~flush_calls ~flush_ns =
  let calls k = spans.t_calls.(k) in
  let lfrc k what = Printf.sprintf "lfrc.%s.%s" Spans.names.(k) what in
  let calls_per_op k =
    m (lfrc k "calls_per_op") "1/op" (per (calls k) spans.t_ops)
  in
  let ns k = m (lfrc k "ns") "ns" (per spans.t_ns.(k) (calls k)) in
  let success k =
    m (lfrc k "success_ratio") "ratio" (per spans.t_ok.(k) (calls k))
  in
  let per_op name n = m name "1/op" (per n ops) in
  [
    m "structures.op_self_us" "us"
      (per (spans.t_op_ns - spans.t_child_ns) spans.t_ops /. 1e3);
    calls_per_op Spans.k_load;
    ns Spans.k_load;
    m "lfrc.load.busy_share" "ratio"
      (per spans.t_ns.(Spans.k_load) spans.t_op_ns);
    calls_per_op Spans.k_alloc;
    ns Spans.k_alloc;
    calls_per_op Spans.k_store;
    ns Spans.k_store;
    calls_per_op Spans.k_destroy;
    ns Spans.k_destroy;
    m "lfrc.flush.calls" "count" (float_of_int flush_calls);
    m "lfrc.flush.ns" "ns" (per flush_ns flush_calls);
    calls_per_op Spans.k_cas;
    success Spans.k_cas;
    calls_per_op Spans.k_dcas;
    success Spans.k_dcas;
    per_op "atomics.reads_per_op" dcas.reads;
    per_op "atomics.cas_attempts_per_op" dcas.cas_attempts;
    per_op "atomics.dcas_attempts_per_op" dcas.dcas_attempts;
    per_op "atomics.rmw_per_op" dcas.rmw_ops;
    m "atomics.cas_success_ratio" "ratio"
      (per (dcas.cas_attempts - dcas.cas_failures) dcas.cas_attempts);
    m "atomics.dcas_success_ratio" "ratio"
      (per (dcas.dcas_attempts - dcas.dcas_failures) dcas.dcas_attempts);
    per_op "simmem.allocs_per_op" allocs;
    per_op "simmem.frees_per_op" frees;
    m "simmem.peak_live" "objects" (float_of_int peak_live);
  ]

(* The simulator-only layers; real-domain runs report them as 0. *)
let sim_layer_zeros =
  List.map
    (fun (n, u) -> m n u 0.)
    [
      ("sched.ns_per_step", "ns");
      ("sched.step_skew", "ratio");
      ("sim.eager.steps_per_op", "steps/op");
      ("sim.eager.ns_per_op", "ns");
      ("sim.deferred.steps_per_op", "steps/op");
      ("sim.deferred.ns_per_op", "ns");
      ("sim.wait_free.steps_per_op", "steps/op");
      ("sim.wait_free.ns_per_op", "ns");
      ("obs.metrics_overhead_pct", "%");
    ]

(* A unit is one structure lifetime (a real-domain segment or a simulated
   round): its ops and its output checks. A failed check fails that
   unit's ops; a failed whole-run check fails every op of the run. *)
type outcome = {
  units : (int * (string * bool) list) list;
  run_checks : (string * bool) list;
  metrics : metric list;
  meta : (string * string) list;
}

let label l checks = List.map (fun (c, ok) -> (l ^ c, ok)) checks

let report ~meta o =
  let attempted = List.fold_left (fun a (n, _) -> a + n) 0 o.units in
  let failed =
    if List.for_all snd o.run_checks then
      List.fold_left
        (fun a (n, cs) -> if List.for_all snd cs then a else a + n)
        0 o.units
    else attempted
  in
  let meta =
    meta @ [ ("units", string_of_int (List.length o.units)) ] @ o.meta
  in
  Printf.printf "# %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) meta));
  let all = List.concat_map snd o.units @ o.run_checks in
  List.iter
    (fun c ->
      let runs = List.filter (fun (c', _) -> c' = c) all in
      match List.length (List.filter (fun (_, ok) -> not ok) runs) with
      | 0 -> Printf.printf "# check %s: ok\n" c
      | bad ->
          Printf.printf "# check %s: FAILED in %d of %d\n" c bad
            (List.length runs))
    (List.sort_uniq compare (List.map fst all));
  Printf.printf "# failed_share=%s (%d of %d ops)\n"
    (json_num (per failed attempted))
    failed attempted;
  List.iter
    (fun x -> Printf.printf "# %s = %s %s\n" x.name (json_num x.value) x.unit_)
    o.metrics;
  print_result ~correct:(failed = 0) ~attempted:(max 1 attempted) ~failed
    o.metrics

(* --- real-domain workloads --- *)

let rc_mode_name = function
  | Env.Eager -> "eager"
  | Env.Deferred_rc { epoch } -> Printf.sprintf "deferred-%d" epoch
  | Env.Wait_free { weight } -> Printf.sprintf "wait-free-%d" weight

(* Median over the windows' 250 ms slices: robust to a short stall of the
   machine. *)
let slice_tput (r : Domain_run.result) =
  if r.slice_tput = [] then per r.ops r.wall_ns *. 1e9
  else median r.slice_tput

let real_domain (module P : Drivers.S) (module T : Drivers.S) ~rc_mode
    ~(spec_of : seed:int -> Drivers.spec) ~seed ~seconds ~trace =
  let module Rp = Domain_run.Make (P) in
  let module Rt = Domain_run.Make (T) in
  let env_of () =
    Env.create ~dcas_impl:Dcas.Striped_lock ~rc_mode (Heap.create ())
  in
  (* Generated per segment, before its setup, so only one segment's
     streams are in memory at a time. *)
  let specs =
    List.init segments (fun j () -> spec_of ~seed:((seed * segments) + j))
  in
  let window parts = int_of_float (seconds *. 1e9 /. float_of_int parts) in
  let unit l (r : Domain_run.result) = (r.ops, label l r.checks) in
  let meta (r : Domain_run.result) =
    [
      ("dcas_impl", "striped-lock");
      ("rc_mode", rc_mode_name rc_mode);
      ("workers", string_of_int workers);
      ("segments", string_of_int segments);
      ("samples", string_of_int r.ops);
      ("setups", string_of_int (List.length r.setup_ns));
      ("stream_exhausted", string_of_bool r.exhausted);
    ]
  in
  if trace = 0 then begin
    let rs =
      List.map
        (fun spec ->
          Rp.run ~env_of ~spec:(spec ()) ~window_ns:(window segments)
            ~setups:setups_per_segment ~traced:false)
        specs
    in
    let r = Domain_run.merge rs in
    {
      units = List.map (unit "") rs;
      run_checks = [];
      meta = meta r;
      metrics =
        (m "throughput_ops_s" "ops/s" (slice_tput r) :: latency_metrics r.hist)
        @ [
            m "steps_per_op" "steps/op" (per (Counts.primitives r.dcas) r.ops);
            m "mean_live_objects" "objects" (per r.live_sum r.live_samples);
            m "minor_words_per_op" "words/op"
              (r.minor_words /. float_of_int (max 1 r.ops));
            m "setup_s" "s" (median (List.map float_of_int r.setup_ns) /. 1e9);
          ];
    }
  end
  else begin
    (* Untraced and traced windows alternate, segment by segment. *)
    let pairs =
      List.map
        (fun spec ->
          let spec = spec () and w = window (2 * segments) in
          ( Rp.run ~env_of ~spec ~window_ns:w ~setups:1 ~traced:false,
            Rt.run ~env_of ~spec ~window_ns:w ~setups:1 ~traced:true ))
        specs
    in
    let u = Domain_run.merge (List.map fst pairs)
    and t = Domain_run.merge (List.map snd pairs) in
    let s = t.spans in
    {
      units =
        List.concat_map
          (fun (u, t) -> [ unit "untraced/" u; unit "traced/" t ])
          pairs;
      run_checks = [ ("traced/every-op-spanned", s.t_ops = t.ops) ];
      meta = meta t;
      metrics =
        layer_metrics ~ops:t.ops ~spans:s ~dcas:t.dcas ~allocs:t.allocs
          ~frees:t.frees ~peak_live:t.peak_live
          ~flush_calls:(s.t_calls.(Spans.k_flush) + t.settle_flushes)
          ~flush_ns:(s.t_ns.(Spans.k_flush) + t.settle_flush_ns)
        @ sim_layer_zeros
        @ [
            m "domains.finish_skew_pct" "%"
              (100. *. per t.finish_skew_ns t.wall_ns);
            m "trace.overhead_pct" "%"
              (loss_pct ~base:(slice_tput u) (slice_tput t));
          ];
    }
  end

(* --- the simulated workloads --- *)

let sim_modes =
  [
    ("eager", Env.Eager);
    ("deferred", Env.Deferred_rc { epoch = 64 });
    ("wait_free", Env.Wait_free { weight = 64 });
  ]

(* A structure's size under a random op mix is a random walk, so one long
   schedule gives a seed-dependent live count; many short rounds over
   distinct sub-seeds average it out. *)
let sim_sub_seeds = 16
let sim_len = 250

(* One mode's rounds in one variant. Round i replays sub-seed
   [i mod sim_sub_seeds], so [cycle] (the first round of each sub-seed)
   carries the mode's exact counts and every later round must repeat
   them. *)
type mode_run = {
  rounds : Sim_run.round list;
  cycle : Sim_run.round list;
  spans : Spans.totals;
}

(* Runs one mode in each variant ([(traced, metrics_on)]), alternating the
   variants round by round so a drift in machine speed hits all of them
   alike, until [budget_ns] of worker-phase time is spent and every
   variant has completed its cycle. *)
let sim_mode (module P : Drivers.S) (module T : Drivers.S) ~variants ~rc_mode
    ~specs ~budget_ns ~hist =
  let module Rp = Sim_run.Make (P) in
  let module Rt = Sim_run.Make (T) in
  let k = Array.length specs in
  let state =
    List.map
      (fun (traced, metrics_on) ->
        let bufs = Array.init sim_workers (fun _ -> Spans.create ()) in
        let round = if traced then Rt.round else Rp.round in
        let run seed spec =
          let metrics =
            if metrics_on then Metrics.create () else Metrics.disabled
          in
          round ~rc_mode ~metrics ~seed ~spec ~bufs ~hist ~traced
        in
        (bufs, run, ref []))
      variants
  in
  let rec go i spent =
    if i < k || spent < budget_ns then begin
      let seed, spec = specs.(i mod k) in
      go (i + 1)
        (List.fold_left
           (fun spent (_, run, acc) ->
             let r = run seed spec in
             acc := r :: !acc;
             spent + r.Sim_run.wall_ns)
           spent state)
    end
  in
  go 0 0;
  List.map
    (fun (bufs, _, acc) ->
      let rounds = List.rev !acc in
      {
        rounds;
        cycle = List.filteri (fun i _ -> i < k) rounds;
        spans = Spans.totals (Array.to_list bufs);
      })
    state

let sum_rounds f rs = List.fold_left (fun a (r : Sim_run.round) -> a + f r) 0 rs

let steps_per_op cycle =
  per (sum_rounds (fun r -> r.steps) cycle) (sum_rounds (fun r -> r.ops) cycle)

(* Median over a mode's rounds of wall ns per op. *)
let ns_per_op (t : mode_run) =
  median (List.map (fun (r : Sim_run.round) -> per r.wall_ns r.ops) t.rounds)

(* Ops per second over the three modes, equal ops each: 1 / mean ns/op. *)
let modes_tput runs =
  let ns = List.map (fun (_, t) -> ns_per_op t) runs in
  1e9 *. float_of_int (List.length ns) /. List.fold_left ( +. ) 0. ns

(* Every replay of a sub-seed repeats its cycle round's counts exactly. *)
let deterministic_replay (t : mode_run) =
  let cycle = Array.of_list t.cycle in
  List.for_all Fun.id
    (List.mapi
       (fun i (r : Sim_run.round) ->
         let c = cycle.(i mod Array.length cycle) in
         r.steps = c.steps && r.dcas = c.dcas && r.heap = c.heap)
       t.rounds)

let sim_workload (module P : Drivers.S) (module T : Drivers.S) ~structure
    ~(spec_of : seed:int -> Drivers.spec) ~seed ~seconds ~trace =
  let specs =
    Array.init sim_sub_seeds (fun j ->
        let s = (seed * sim_sub_seeds) + j in
        (s, spec_of ~seed:s))
  in
  let hist = Hist.create () in
  let budget_ns = int_of_float (seconds *. 1e9 /. 3.) in
  (* For each variant, its (mode name, mode_run) list. *)
  let run_modes variants =
    let per_mode =
      List.map
        (fun (name, rc_mode) ->
          ( name,
            sim_mode
              (module P)
              (module T)
              ~variants ~rc_mode ~specs ~budget_ns ~hist ))
        sim_modes
    in
    List.mapi
      (fun v _ -> List.map (fun (name, rs) -> (name, List.nth rs v)) per_mode)
      variants
  in
  let all_rounds runs = List.concat_map (fun (_, t) -> t.rounds) runs in
  let all_cycles runs = List.concat_map (fun (_, t) -> t.cycle) runs in
  let meta runs =
    [
      ("structure", structure);
      ("dcas_impl", "atomic-step");
      ("rc_mode", "eager,deferred-64,wait-free-64");
      ( "strategy",
        Printf.sprintf "random:%d..%d" (fst specs.(0))
          (fst specs.(sim_sub_seeds - 1)) );
      ("sim_threads", string_of_int sim_workers);
      ("samples", string_of_int (Hist.count hist));
      ( "rounds",
        String.concat ","
          (List.map
             (fun (n, t) -> Printf.sprintf "%s:%d" n (List.length t.rounds))
             runs) );
    ]
  in
  let units l runs =
    List.concat_map
      (fun (n, t) ->
        List.map
          (fun (r : Sim_run.round) -> (r.ops, label (l ^ n ^ "/") r.checks))
          t.rounds)
      runs
  in
  let replay l runs =
    List.map
      (fun (n, t) -> (l ^ n ^ "/deterministic-replay", deterministic_replay t))
      runs
  in
  if trace = 0 then begin
    let runs = List.hd (run_modes [ (false, true) ]) in
    let rounds = all_rounds runs and cycles = all_cycles runs in
    let minor =
      List.fold_left (fun a (r : Sim_run.round) -> a +. r.minor_words) 0. rounds
    in
    let ops = sum_rounds (fun r -> r.ops) rounds in
    {
      units = units "" runs;
      run_checks = replay "" runs;
      meta = meta runs;
      metrics =
        (m "throughput_ops_s" "ops/s" (modes_tput runs) :: latency_metrics hist)
        @ [
            m "steps_per_op" "steps/op" (steps_per_op cycles);
            m "mean_live_objects" "objects"
              (per
                 (sum_rounds (fun r -> r.live_sum) cycles)
                 (sum_rounds (fun r -> r.live_samples) cycles));
            m "minor_words_per_op" "words/op"
              (minor /. float_of_int (max 1 ops));
            m "setup_s" "s"
              (median
                 (List.map
                    (fun (r : Sim_run.round) -> float_of_int r.setup_ns)
                    rounds)
              /. 1e9);
          ];
    }
  end
  else begin
    let on, off, tr =
      match run_modes [ (false, true); (false, false); (true, true) ] with
      | [ on; off; tr ] -> (on, off, tr)
      | _ -> assert false
    in
    (* Span sums over every traced round; substrate and heap deltas over
       one traced cycle per mode. *)
    let spans = Spans.sum_totals (List.map (fun (_, t) -> t.spans) tr) in
    let cycles = all_cycles tr in
    let dcas =
      List.fold_left
        (fun a (r : Sim_run.round) ->
          Counts.add a (Counts.sub r.dcas r.dcas_start))
        Counts.zero cycles
    in
    let heap_delta f =
      sum_rounds (fun r -> f r.Sim_run.heap - f r.Sim_run.heap_start) cycles
    in
    let worker_steps =
      Array.init sim_workers (fun w ->
          sum_rounds (fun r -> r.worker_steps.(w)) (all_cycles on))
    in
    let on_rounds = all_rounds on in
    {
      units =
        units "metrics-on/" on @ units "metrics-off/" off @ units "traced/" tr;
      run_checks =
        replay "metrics-on/" on @ replay "metrics-off/" off
        @ replay "traced/" tr;
      meta = meta tr;
      metrics =
        (* A simulated thread's span also covers the steps other simulated
           threads take between its yield points: sim span times are wall
           time under interleaving, not isolated cost. *)
        layer_metrics
          ~ops:(sum_rounds (fun r -> r.ops) cycles)
          ~spans ~dcas
          ~allocs:(heap_delta (fun h -> h.Heap.allocs))
          ~frees:(heap_delta (fun h -> h.Heap.frees))
          ~peak_live:
            (List.fold_left
               (fun a (r : Sim_run.round) -> max a r.heap.peak_live)
               0 cycles)
          ~flush_calls:spans.t_calls.(Spans.k_flush)
          ~flush_ns:spans.t_ns.(Spans.k_flush)
        @ [
            m "sched.ns_per_step" "ns"
              (per
                 (sum_rounds (fun r -> r.wall_ns) on_rounds)
                 (sum_rounds (fun r -> r.steps) on_rounds));
            m "sched.step_skew" "ratio"
              (per
                 (Array.fold_left max 0 worker_steps
                 - Array.fold_left min max_int worker_steps)
                 (Array.fold_left ( + ) 0 worker_steps)
              *. float_of_int sim_workers);
          ]
        @ List.concat_map
            (fun (n, t) ->
              [
                m (Printf.sprintf "sim.%s.steps_per_op" n) "steps/op"
                  (steps_per_op t.cycle);
                m (Printf.sprintf "sim.%s.ns_per_op" n) "ns" (ns_per_op t);
              ])
            on
        @ [
            m "obs.metrics_overhead_pct" "%"
              (loss_pct ~base:(modes_tput off) (modes_tput on));
            m "domains.finish_skew_pct" "%" 0.;
            m "trace.overhead_pct" "%"
              (loss_pct ~base:(modes_tput on) (modes_tput tr));
          ];
    }
  end

(* --- command line --- *)

(* [sim-deque-3mode] is not one of the benchmark's workloads: it runs the
   corrected Snark deque, whose false-empty defect (NOTES.md) fails some
   rounds' checks. It stays runnable to reproduce that defect. *)
let workloads =
  [
    "stack-churn";
    "set-read-mostly";
    "queue-deferred";
    "sim-dlist-3mode";
    "sim-deque-3mode";
  ]

let run ~workload ~seed ~seconds ~trace =
  let len per_s = stream_len ~per_s ~seconds in
  match workload with
  | "stack-churn" ->
      real_domain
        (module Drivers.Stack (Plain))
        (module Drivers.Stack (Traced_ops))
        ~rc_mode:Env.Eager
        ~spec_of:(Drivers.stack_churn ~workers ~len:(len 150_000))
        ~seed ~seconds ~trace
  | "set-read-mostly" ->
      real_domain
        (module Drivers.Set (Plain))
        (module Drivers.Set (Traced_ops))
        ~rc_mode:Env.Eager
        ~spec_of:
          (Drivers.set_mix ~contains_pct:90 ~workers ~len:(len 10_000)
             ~range:4096)
        ~seed ~seconds ~trace
  | "queue-deferred" ->
      real_domain
        (module Drivers.Queue (Plain))
        (module Drivers.Queue (Traced_ops))
        ~rc_mode:(Env.Deferred_rc { epoch = 64 })
        ~spec_of:(Drivers.queue_pairs ~workers ~len:(len 120_000))
        ~seed ~seconds ~trace
  | "sim-dlist-3mode" ->
      sim_workload
        (module Drivers.Dlist (Plain))
        (module Drivers.Dlist (Traced_ops))
        ~structure:"dlist-set"
        ~spec_of:
          (Drivers.set_mix ~contains_pct:50 ~workers:sim_workers ~len:sim_len
             ~range:64)
        ~seed ~seconds ~trace
  | _ ->
      sim_workload
        (module Drivers.Deque (Plain))
        (module Drivers.Deque (Traced_ops))
        ~structure:"snark-fixed"
        ~spec_of:
          (Drivers.deque_balanced ~workers:sim_workers ~len:sim_len
             ~n_prefill:128)
        ~seed ~seconds ~trace

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and git_rev = ref "unknown" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        " " ^ String.concat "|" workloads );
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " measured time per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end, 1: per-layer metrics");
      ("--git-rev", Arg.Set_string git_rev, " revision recorded in the output");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "lfrc_bench.exe --workload W --seed N --seconds S --trace 0|1";
  let workload = !workload and seed = !seed and seconds = !seconds in
  let trace = !trace in
  let valid_trace = trace = 0 || trace = 1 in
  if not (List.mem workload workloads && valid_trace && seconds > 0.) then begin
    prerr_endline "lfrc_bench: bad --workload, --trace or --seconds";
    exit 2
  end;
  let meta =
    [
      ("workload", workload);
      ("seed", string_of_int seed);
      ("seconds", string_of_float seconds);
      ("trace", string_of_int trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("git_rev", !git_rev);
      ("clock", "CLOCK_MONOTONIC(bechamel.monotonic_clock)");
    ]
  in
  match run ~workload ~seed ~seconds ~trace with
  | o -> report ~meta o
  | exception e ->
      (* A raised exception is a failed run (e.g. a use-after-free on a
         worker domain): report it rather than dying without a result. *)
      Printf.printf "# exception: %s\n" (Printexc.to_string e);
      print_result ~correct:false ~attempted:1 ~failed:1 []
