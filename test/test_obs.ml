(* Tests for the observability layer: the metrics registry, the event
   tracer, and their wiring into the LFRC environment. *)

module Metrics = Lfrc_obs.Metrics
module Tracer = Lfrc_obs.Tracer
module Stats = Lfrc_util.Stats
module Heap = Lfrc_simmem.Heap
module Layout = Lfrc_simmem.Layout
module Env = Lfrc_core.Env
module Lfrc = Lfrc_core.Lfrc

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let is_infix ~affix s =
  let la = String.length affix and ls = String.length s in
  let rec go i = i + la <= ls && (String.sub s i la = affix || go (i + 1)) in
  la = 0 || go 0

let close eps a b =
  Alcotest.(check bool)
    (Printf.sprintf "%.3f ~ %.3f" a b)
    true
    (Float.abs (a -. b) <= eps)

(* --- Metrics registry --- *)

let test_counter_exact () =
  let m = Metrics.create () in
  for _ = 1 to 3 do
    Metrics.incr m "a.x"
  done;
  Metrics.add m "a.x" 5;
  Metrics.incr m "b.y";
  let s = Metrics.snapshot m in
  checki "a.x" 8 (Metrics.counter_value s "a.x");
  checki "b.y" 1 (Metrics.counter_value s "b.y");
  checki "absent" 0 (Metrics.counter_value s "c.z")

let test_gauge_high_water () =
  let m = Metrics.create () in
  Metrics.set_gauge m "g" 5;
  Metrics.set_gauge m "g" 2;
  let s = Metrics.snapshot m in
  checkb "last 2, max 5" true (Metrics.gauge_value s "g" = Some (2, 5))

let test_disabled_records_nothing () =
  let m = Metrics.disabled in
  checkb "not enabled" false (Metrics.enabled m);
  Metrics.incr m "a";
  Metrics.add m "a" 10;
  Metrics.set_gauge m "g" 1;
  Metrics.observe m "h" 1.0;
  checkb "snapshot empty" true (Metrics.is_empty (Metrics.snapshot m))

let test_merge () =
  let m1 = Metrics.create () and m2 = Metrics.create () in
  Metrics.add m1 "c" 3;
  Metrics.add m2 "c" 4;
  Metrics.add m2 "only2" 1;
  Metrics.set_gauge m1 "g" 7;
  Metrics.set_gauge m2 "g" 2;
  Metrics.observe m1 "h" 1.0;
  Metrics.observe m2 "h" 3.0;
  let s = Metrics.merge (Metrics.snapshot m1) (Metrics.snapshot m2) in
  checki "counters add" 7 (Metrics.counter_value s "c");
  checki "disjoint kept" 1 (Metrics.counter_value s "only2");
  (match Metrics.gauge_value s "g" with
  | Some (_, mx) -> checki "gauge max of maxima" 7 mx
  | None -> Alcotest.fail "gauge lost");
  match List.assoc_opt "h" s.Metrics.samples with
  | Some arr -> checki "samples concatenated" 2 (Array.length arr)
  | None -> Alcotest.fail "histogram lost"

let test_quantile_sanity () =
  let xs = Array.init 101 (fun i -> Float.of_int i) in
  close 0.5 50.0 (Stats.quantile xs 0.5);
  close 1.0 99.0 (Stats.quantile xs 0.99);
  close 0.001 0.0 (Stats.quantile xs 0.0);
  close 0.001 100.0 (Stats.quantile xs 1.0);
  (* merge: pooled n and size-weighted quantiles stay in range *)
  let s1 = Stats.summarize (Array.init 50 (fun i -> Float.of_int i)) in
  let s2 = Stats.summarize (Array.init 50 (fun i -> Float.of_int (i + 50))) in
  let m = Stats.merge s1 s2 in
  checki "pooled n" 100 m.Stats.n;
  close 0.5 49.5 m.Stats.mean;
  checkb "p50 within range" true (m.Stats.p50 > 0.0 && m.Stats.p50 < 100.0)

let test_metrics_json_shape () =
  let m = Metrics.create () in
  Metrics.incr m "dcas.reads";
  Metrics.set_gauge m "heap.live" 3;
  Metrics.observe m "pause" 2.5;
  let j = Metrics.to_json (Metrics.snapshot m) in
  List.iter
    (fun frag ->
      checkb (frag ^ " present") true
        (is_infix ~affix:frag j))
    [
      "\"counters\"";
      "\"dcas.reads\":1";
      "\"gauges\"";
      "\"heap.live\"";
      "\"last\":3";
      "\"histograms\"";
      "\"p50\"";
    ]

(* --- wiring: a scripted single-threaded LFRC sequence has exact counts --- *)

let test_env_wiring_exact () =
  let layout = Layout.make ~name:"obs-node" ~n_ptrs:1 ~n_vals:0 in
  let m = Metrics.create () in
  let heap = Heap.create ~name:"obs" () in
  let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step ~metrics:m heap in
  let root = Heap.root heap ~name:"r" () in
  let p = Lfrc.alloc env layout in
  Lfrc.store_alloc env ~dst:root p;
  let dest = ref Heap.null in
  Lfrc.load env ~src:root ~dest;
  Lfrc.destroy env !dest;
  Lfrc.store env ~dst:root Heap.null;
  Heap.release_root heap root;
  let s = Metrics.snapshot m in
  checki "one alloc" 1 (Metrics.counter_value s "lfrc.alloc");
  checki "heap alloc" 1 (Metrics.counter_value s "heap.allocs");
  checki "one load" 1 (Metrics.counter_value s "lfrc.load");
  checki "one store" 1 (Metrics.counter_value s "lfrc.store");
  checki "one free" 1 (Metrics.counter_value s "lfrc.frees");
  checki "heap free" 1 (Metrics.counter_value s "heap.frees");
  (* single-threaded: no retries anywhere *)
  checki "no load retries" 0 (Metrics.counter_value s "lfrc.load_retry");
  match Metrics.gauge_value s "heap.live" with
  | Some (last, mx) ->
      checki "live back to 0" 0 last;
      checki "live peaked at 1" 1 mx
  | None -> Alcotest.fail "heap.live gauge missing"

let test_disabled_metrics_zero_cost_path () =
  (* The same sequence against the disabled registry records nothing. *)
  let layout = Layout.make ~name:"obs-node2" ~n_ptrs:1 ~n_vals:0 in
  let heap = Heap.create ~name:"obs2" () in
  let env = Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step heap in
  let p = Lfrc.alloc env layout in
  Lfrc.destroy env p;
  checkb "default env records nothing" true
    (Metrics.is_empty (Metrics.snapshot (Env.metrics env)))

(* --- the substrate's counters are the only count --- *)

module Dcas = Lfrc_atomics.Dcas

let dcas_series (c : Dcas.counters) =
  [
    ("dcas.reads", c.reads);
    ("dcas.writes", c.writes);
    ("dcas.rmw", c.rmw_ops);
    ("dcas.cas_attempts", c.cas_attempts);
    ("dcas.cas_failures", c.cas_failures);
    ("dcas.dcas_attempts", c.dcas_attempts);
    ("dcas.dcas_failures", c.dcas_failures);
    ("dcas.spurious_cas", c.spurious_cas);
    ("dcas.spurious_dcas", c.spurious_dcas);
  ]

(* Two environments share one registry: its dcas.* series are the sums of
   both substrates' own counters, and a series that never fired (no fault
   plan, so no spurious failure) is absent rather than 0. *)
let test_shared_registry_sums_substrates () =
  let layout = Layout.make ~name:"obs-shared" ~n_ptrs:1 ~n_vals:0 in
  let m = Metrics.create () in
  let run n =
    let heap = Heap.create ~name:"obs-shared" () in
    let env =
      Env.create ~dcas_impl:Lfrc_atomics.Dcas.Atomic_step ~metrics:m heap
    in
    let root = Heap.root heap ~name:"r" () in
    for _ = 1 to n do
      Lfrc.store_alloc env ~dst:root (Lfrc.alloc env layout);
      let dest = ref Heap.null in
      Lfrc.load env ~src:root ~dest;
      Lfrc.destroy env !dest
    done;
    Lfrc.store env ~dst:root Heap.null;
    Dcas.counters (Env.dcas env)
  in
  let c1 = run 3 and c2 = run 5 in
  let s = Metrics.snapshot m in
  List.iter2
    (fun (name, a) (_, b) ->
      checki name (a + b) (Metrics.counter_value s name);
      checkb (name ^ " listed iff nonzero") (a + b > 0)
        (List.mem_assoc name s.Metrics.counters))
    (dcas_series c1) (dcas_series c2);
  checkb "the run did count" true (Metrics.counter_value s "dcas.reads" > 0);
  checkb "never-fired series absent" false
    (List.mem_assoc "dcas.spurious_cas" s.Metrics.counters)

(* Software MCAS counts belong to the registry of the substrate that ran
   them: two environments with their own registries each see exactly
   their own mcas.*, whichever was created last. *)
let test_mcas_counts_per_registry () =
  let env_with m =
    Env.create ~dcas_impl:Dcas.Software_mcas ~metrics:m
      (Heap.create ~name:"obs-mcas" ())
  in
  let m1 = Metrics.create () and m2 = Metrics.create () in
  let e1 = env_with m1 in
  let e2 = env_with m2 in
  let dcas_n env ~ok ~fail =
    let d = Env.dcas env in
    let c0 = Lfrc_simmem.Cell.make 0 and c1 = Lfrc_simmem.Cell.make 0 in
    for i = 0 to ok - 1 do
      ignore (Dcas.dcas d c0 c1 ~old0:i ~old1:i ~new0:(i + 1) ~new1:(i + 1))
    done;
    for _ = 1 to fail do
      ignore (Dcas.dcas d c0 c1 ~old0:(-1) ~old1:0 ~new0:0 ~new1:0)
    done
  in
  dcas_n e1 ~ok:3 ~fail:2;
  dcas_n e2 ~ok:1 ~fail:0;
  let s1 = Metrics.snapshot m1 and s2 = Metrics.snapshot m2 in
  checki "env1 attempts" 5 (Metrics.counter_value s1 "mcas.attempt");
  checki "env1 successes" 3 (Metrics.counter_value s1 "mcas.success");
  checki "env1 failures" 2 (Metrics.counter_value s1 "mcas.fail");
  checki "env2 attempts" 1 (Metrics.counter_value s2 "mcas.attempt");
  checki "env2 successes" 1 (Metrics.counter_value s2 "mcas.success");
  checkb "env2 never failed" false
    (List.mem_assoc "mcas.fail" s2.Metrics.counters)

(* --- Tracer --- *)

let test_ring_wrap () =
  let t = Tracer.create ~capacity:8 in
  for i = 1 to 20 do
    Tracer.emit t ~arg:i Tracer.Instant "ev"
  done;
  let evs = Tracer.events t in
  checki "retained = capacity" 8 (List.length evs);
  checki "recorded = all" 20 (Tracer.recorded t);
  checki "dropped = excess" 12 (Tracer.dropped t);
  (* oldest first: the survivors are events 13..20 *)
  checki "oldest survivor" 13 (List.hd evs).Tracer.arg;
  checki "newest survivor" 20
    (List.nth evs 7).Tracer.arg

let test_disabled_tracer () =
  let t = Tracer.disabled in
  checkb "not enabled" false (Tracer.enabled t);
  Tracer.emit t Tracer.Begin "x";
  checki "no events" 0 (List.length (Tracer.events t));
  checki "nothing recorded" 0 (Tracer.recorded t);
  checkb "capacity<=0 is disabled" false
    (Tracer.enabled (Tracer.create ~capacity:0))

let test_chrome_json_well_formed () =
  let t = Tracer.create ~capacity:64 in
  Tracer.emit t Tracer.Begin "lfrc.load";
  Tracer.emit t Tracer.Retry "dcas.dcas_attempts";
  Tracer.emit t Tracer.End "lfrc.load";
  Tracer.emit t ~arg:42 Tracer.Free "free";
  let j = Tracer.to_chrome_json t in
  let count affix =
    let n = ref 0 in
    let la = String.length affix in
    for i = 0 to String.length j - la do
      if String.sub j i la = affix then incr n
    done;
    !n
  in
  checkb "object" true
    (String.length j > 2 && j.[0] = '{' && j.[String.length j - 1] = '}');
  checkb "traceEvents key" true
    (is_infix ~affix:"\"traceEvents\"" j);
  (* Begin+End pair into one "X" complete record; Retry and Free export
     as instants. *)
  checki "three records" 3 (count "\"ph\"");
  checki "one complete span" 1 (count "\"ph\":\"X\"");
  checki "instants" 2 (count "\"ph\":\"i\"");
  checki "balanced braces" (count "{") (count "}");
  checki "balanced brackets" (count "[") (count "]")

let test_timeline_lines () =
  let t = Tracer.create ~capacity:16 in
  Tracer.emit t Tracer.Begin "op";
  Tracer.emit t Tracer.End "op";
  let lines =
    String.split_on_char '\n' (String.trim (Tracer.to_timeline t))
  in
  (* one line per event plus the accounting footer *)
  checki "event lines + footer" 3 (List.length lines);
  let footer = List.nth lines 2 in
  checkb "footer has drop count" true
    (is_infix ~affix:"2 retained, 0 dropped" footer)

let test_orphaned_begin_degrades () =
  (* Begin A, Begin B (B's End lost), End A: B must degrade to an
     "op-open" instant and A must still pair into a complete span. *)
  let t = Tracer.create ~capacity:16 in
  Tracer.emit t Tracer.Begin "A";
  Tracer.emit t Tracer.Begin "B";
  Tracer.emit t Tracer.End "A";
  let j = Tracer.to_chrome_json t in
  let count affix =
    let n = ref 0 in
    let la = String.length affix in
    for i = 0 to String.length j - la do
      if String.sub j i la = affix then incr n
    done;
    !n
  in
  checki "A pairs into a complete span" 1 (count "\"ph\":\"X\"");
  checki "B degrades to an instant" 1 (count "\"ph\":\"i\"");
  checki "B is marked op-open" 1 (count "\"op-open\"")

(* The traced steps are exercised under the scheduler in test_harness's
   experiment runs; here we only need emit to be harmless outside one. *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter exact" `Quick test_counter_exact;
          Alcotest.test_case "gauge high-water" `Quick test_gauge_high_water;
          Alcotest.test_case "disabled" `Quick test_disabled_records_nothing;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "quantiles" `Quick test_quantile_sanity;
          Alcotest.test_case "json shape" `Quick test_metrics_json_shape;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "scripted counts exact" `Quick
            test_env_wiring_exact;
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_metrics_zero_cost_path;
          Alcotest.test_case "shared registry sums substrates" `Quick
            test_shared_registry_sums_substrates;
          Alcotest.test_case "mcas counts stay per registry" `Quick
            test_mcas_counts_per_registry;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
          Alcotest.test_case "disabled" `Quick test_disabled_tracer;
          Alcotest.test_case "chrome json" `Quick test_chrome_json_well_formed;
          Alcotest.test_case "orphaned begin" `Quick
            test_orphaned_begin_degrades;
          Alcotest.test_case "timeline" `Quick test_timeline_lines;
        ] );
    ]
