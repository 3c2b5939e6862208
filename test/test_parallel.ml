(* Real-domain stress: the same structures driven by OCaml domains with
   the striped-lock DCAS substrate (the hardware-DCAS stand-in for true
   parallelism). The machine may have a single core; domains still
   interleave preemptively, exercising the real atomics.

   Each test checks value conservation and, for LFRC structures, that
   quiescent teardown leaves an empty heap with exact counts; the Treiber,
   Michael-Scott and skip-list cases also run in deferred-rc mode. The
   per-thread crash registries and the substrate's per-domain counters
   are written by their owners without a lock; the tests below check they
   come out empty and exact once the domains are joined. *)

module Heap = Lfrc_simmem.Heap
module Env = Lfrc_core.Env
module Report = Lfrc_simmem.Report

module Treiber = Lfrc_structures.Treiber.Make (Lfrc_core.Lfrc_ops)
module Msq = Lfrc_structures.Msqueue.Make (Lfrc_core.Lfrc_ops)
module Fixed = Lfrc_structures.Snark_fixed.Make (Lfrc_core.Lfrc_ops)
module Skip = Lfrc_structures.Skiplist.Make (Lfrc_core.Lfrc_ops)
module Dcas = Lfrc_atomics.Dcas
module Cell = Lfrc_simmem.Cell
module Locked = Lfrc_structures.Locked_deque

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let n_domains = 3
let ops_per_domain = 2_000

let fresh ?rc_mode ?metrics ?lineage ?profile ?blame name =
  let heap = Heap.create ~name () in
  ( Env.create ~dcas_impl:Lfrc_atomics.Dcas.Striped_lock ?rc_mode ?metrics
      ?lineage ?profile ?blame heap,
    heap )

let deferred_rc = Env.Deferred_rc { epoch = 64 }

let sum_range a b = (a + b) * (b - a + 1) / 2

(* After the domains are joined: no destroy or publication left in any
   thread's registry, and every count exact. *)
let check_quiescent name env heap =
  checki (name ^ ": no destroy in flight") 0
    (List.length (Env.destroying_now env));
  checki (name ^ ": no publication in flight") 0
    (List.length (Env.publishing_now env));
  checki (name ^ ": counts exact") 0 (List.length (Report.check_rc_exact heap))

(* Each domain pushes a disjoint range and pops whatever it can; after
   joining, drain the rest: pushed sum must equal popped sum. *)
let run_treiber ?rc_mode ?metrics ?lineage ?profile ?blame () =
  let env, heap =
    fresh ?rc_mode ?metrics ?lineage ?profile ?blame "par-treiber"
  in
  let s = Treiber.create env in
  let popped = Atomic.make 0 in
  let worker d () =
    let h = Treiber.register s in
    let base = (d + 1) * 1_000_000 in
    for i = 1 to ops_per_domain do
      Treiber.push h (base + i);
      if i land 1 = 0 then
        match Treiber.pop h with
        | Some v -> ignore (Atomic.fetch_and_add popped v)
        | None -> ()
    done;
    Treiber.unregister h
  in
  let domains = List.init n_domains (fun d -> Domain.spawn (worker d)) in
  List.iter Domain.join domains;
  let h0 = Treiber.register s in
  let rec drain () =
    match Treiber.pop h0 with
    | Some v ->
        ignore (Atomic.fetch_and_add popped v);
        drain ()
    | None -> ()
  in
  drain ();
  Treiber.unregister h0;
  let expected =
    List.init n_domains (fun d ->
        let base = (d + 1) * 1_000_000 in
        sum_range (base + 1) (base + ops_per_domain))
    |> List.fold_left ( + ) 0
  in
  checki "conservation" expected (Atomic.get popped);
  check_quiescent "treiber" env heap;
  Treiber.destroy s;
  Report.assert_no_leaks heap;
  checki "counts exact at quiescence" 0 (List.length (Report.check_rc_exact heap));
  env

let test_treiber_domains ?rc_mode () = ignore (run_treiber ?rc_mode ())

(* Observability on real domains: every domain has its own op-frame
   stack, so each sink attributes an event to the op running on the
   domain that caused it, and nothing is left open after the join. *)
let test_obs_domains () =
  let module Obs = Lfrc_obs.Obs in
  let module Lineage = Lfrc_obs.Lineage in
  let module Profile = Lfrc_obs.Profile in
  let module Blame = Lfrc_obs.Blame in
  let module Metrics = Lfrc_obs.Metrics in
  let metrics = Metrics.create () and lineage = Lineage.create ~ring:64 () in
  let profile = Profile.create () and blame = Blame.create () in
  let env = run_treiber ~metrics ~lineage ~profile ~blame () in
  let allocs = ref 0 and misattributed = ref [] in
  List.iter
    (fun addr ->
      List.iter
        (fun (ev : Lineage.event) ->
          match ev.kind with
          | Lineage.Alloc _ ->
              incr allocs;
              if ev.op <> "lfrc.alloc" then
                misattributed := ev.op :: !misattributed
          | _ -> ())
        (Lineage.events lineage ~addr))
    (Lineage.tracked lineage);
  checkb "allocations recorded" true (!allocs > 0);
  Alcotest.(check (list string))
    "every Alloc originates in lfrc.alloc" [] !misattributed;
  let calls site =
    match
      List.find_opt (fun r -> r.Profile.r_site = site) (Profile.rows profile)
    with
    | Some r -> r.Profile.r_calls
    | None -> 0
  in
  checki "profile counts each alloc under its own site"
    (Metrics.counter_value (Metrics.snapshot metrics) "lfrc.alloc")
    (calls "lfrc.alloc");
  checki "no op frame left open" 0 (Obs.open_frames (Env.obs env));
  checki "no retry chain left open" 0 (Blame.pending blame)

let test_msqueue_domains ?rc_mode () =
  let env, heap = fresh ?rc_mode "par-msq" in
  let q = Msq.create env in
  let popped = Atomic.make 0 in
  let per_thread_order_ok = Atomic.make 1 in
  let producer d () =
    let h = Msq.register q in
    let base = (d + 1) * 1_000_000 in
    for i = 1 to ops_per_domain do
      Msq.enqueue h (base + i)
    done;
    Msq.unregister h
  in
  let consumer () =
    let h = Msq.register q in
    (* FIFO per producer: values from one producer must arrive in
       ascending order. *)
    let last = Hashtbl.create 4 in
    for _ = 1 to ops_per_domain do
      match Msq.dequeue h with
      | Some v ->
          ignore (Atomic.fetch_and_add popped v);
          let producer_id = v / 1_000_000 in
          let prev = Option.value ~default:0 (Hashtbl.find_opt last producer_id) in
          if v <= prev then Atomic.set per_thread_order_ok 0;
          Hashtbl.replace last producer_id v
      | None -> Domain.cpu_relax ()
    done;
    Msq.unregister h
  in
  let producers = List.init 2 (fun d -> Domain.spawn (producer d)) in
  let consumers = List.init 1 (fun _ -> Domain.spawn consumer) in
  List.iter Domain.join producers;
  List.iter Domain.join consumers;
  let h0 = Msq.register q in
  let rec drain () =
    match Msq.dequeue h0 with
    | Some v ->
        ignore (Atomic.fetch_and_add popped v);
        drain ()
    | None -> ()
  in
  drain ();
  Msq.unregister h0;
  let expected =
    sum_range 1_000_001 (1_000_000 + ops_per_domain)
    + sum_range 2_000_001 (2_000_000 + ops_per_domain)
  in
  checki "conservation" expected (Atomic.get popped);
  checki "per-producer FIFO held" 1 (Atomic.get per_thread_order_ok);
  check_quiescent "msqueue" env heap;
  Msq.destroy q;
  Report.assert_no_leaks heap

(* Each domain inserts and removes keys of its own residue class while
   probing every key; the final set must be exactly the union of the
   domains' own models. *)
let test_skiplist_domains ?rc_mode () =
  let env, heap = fresh ?rc_mode "par-skip" in
  let s = Skip.create env in
  let keys = 256 in
  let worker d () =
    let h = Skip.register ~seed:(d + 1) s in
    let rng = Lfrc_util.Rng.create (d * 6007) in
    let mine = Hashtbl.create 64 in
    for _ = 1 to ops_per_domain do
      let k = Lfrc_util.Rng.int rng keys in
      if k mod n_domains <> d then ignore (Skip.contains h k)
      else if Lfrc_util.Rng.int rng 2 = 0 then begin
        if Skip.insert h k <> not (Hashtbl.mem mine k) then
          failwith "insert disagrees with the model";
        Hashtbl.replace mine k ()
      end
      else begin
        if Skip.remove h k <> Hashtbl.mem mine k then
          failwith "remove disagrees with the model";
        Hashtbl.remove mine k
      end
    done;
    Skip.unregister h;
    Hashtbl.fold (fun k () acc -> k :: acc) mine []
  in
  let domains = List.init n_domains (fun d -> Domain.spawn (worker d)) in
  let expected = List.concat_map Domain.join domains |> List.sort compare in
  let h0 = Skip.register s in
  Alcotest.(check (list int)) "set = union of models" expected (Skip.to_list h0);
  Skip.unregister h0;
  check_quiescent "skiplist" env heap;
  Skip.destroy s;
  Report.assert_no_leaks heap

(* Per-domain counter blocks: exact sums after join, and a reset clears
   every domain's block, not just the caller's. *)
let test_dcas_counters_domains () =
  let d = Dcas.create Dcas.Striped_lock in
  let c = Cell.make 0 in
  let n = 10_000 in
  let finished = Atomic.make 0 in
  let worker () =
    for _ = 1 to n do
      ignore (Dcas.read d c)
    done;
    ignore (Dcas.fetch_add d c 1);
    (* two failed CASes in a row: a streak of 2 on this domain *)
    ignore (Dcas.cas d c (-1) 0);
    ignore (Dcas.cas d c (-1) 0);
    (* Stay alive until all three are done, so each keeps its own
       identity and block (an exited domain's identity, and with it its
       block, passes to the next domain). *)
    Atomic.incr finished;
    while Atomic.get finished < n_domains do
      Domain.cpu_relax ()
    done
  in
  List.init n_domains (fun _ -> Domain.spawn worker) |> List.iter Domain.join;
  let k = Dcas.counters d in
  checki "reads" (n_domains * n) k.Dcas.reads;
  checki "fetch-adds" n_domains k.Dcas.rmw_ops;
  checki "cas attempts" (2 * n_domains) k.Dcas.cas_attempts;
  checki "cas failures" (2 * n_domains) k.Dcas.cas_failures;
  checki "streak max is per domain" 2 k.Dcas.max_cas_failure_streak;
  checki "the cell saw every add" n_domains (Dcas.read d c);
  Dcas.reset_counters d;
  let k = Dcas.counters d in
  checkb "reset zeroes every domain's block" true
    (k
    = {
        Dcas.reads = 0;
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
      })

let deque_conservation (module D : Lfrc_structures.Deque_intf.DEQUE) name
    ~leak_check =
  let env, heap = fresh name in
  let d = D.create env in
  let popped = Atomic.make 0 and pushed = Atomic.make 0 in
  let worker w () =
    let h = D.register d in
    let rng = Lfrc_util.Rng.create (w * 7919) in
    let base = (w + 1) * 1_000_000 in
    for i = 1 to ops_per_domain do
      match Lfrc_util.Rng.int rng 4 with
      | 0 ->
          D.push_left h (base + i);
          ignore (Atomic.fetch_and_add pushed (base + i))
      | 1 ->
          D.push_right h (base + i);
          ignore (Atomic.fetch_and_add pushed (base + i))
      | 2 -> (
          match D.pop_left h with
          | Some v -> ignore (Atomic.fetch_and_add popped v)
          | None -> ())
      | _ -> (
          match D.pop_right h with
          | Some v -> ignore (Atomic.fetch_and_add popped v)
          | None -> ())
    done;
    D.unregister h
  in
  let domains = List.init n_domains (fun w -> Domain.spawn (worker w)) in
  List.iter Domain.join domains;
  let h0 = D.register d in
  let rec drain () =
    match D.pop_left h0 with
    | Some v ->
        ignore (Atomic.fetch_and_add popped v);
        drain ()
    | None -> ()
  in
  drain ();
  D.unregister h0;
  checki (name ^ " conservation") (Atomic.get pushed) (Atomic.get popped);
  D.destroy d;
  if leak_check then begin
    Report.assert_no_leaks heap;
    checki (name ^ " counts exact") 0 (List.length (Report.check_rc_exact heap))
  end

let test_fixed_snark_domains () =
  deque_conservation (module Fixed) "par-fixed" ~leak_check:true

let test_locked_deque_domains () =
  deque_conservation (module Locked) "par-locked" ~leak_check:true

let test_lfrc_ops_domains () =
  (* Raw LFRC operations from several domains on shared cells: the weak
     invariant must leave exact counts at quiescence. *)
  let env, heap = fresh "par-lfrc" in
  let node = Lfrc_simmem.Layout.make ~name:"n" ~n_ptrs:1 ~n_vals:0 in
  let cells = Array.init 4 (fun _ -> Heap.root heap ()) in
  let worker w () =
    let rng = Lfrc_util.Rng.create (w * 104729) in
    Lfrc_core.Lfrc.with_locals env 2 (fun ls ->
        for _ = 1 to 1_000 do
          let c = Lfrc_util.Rng.pick rng cells in
          match Lfrc_util.Rng.int rng 4 with
          | 0 -> Lfrc_core.Lfrc.load env ~src:c ~dest:ls.(0)
          | 1 -> Lfrc_core.Lfrc.store env ~dst:c !(ls.(0))
          | 2 ->
              let p = Lfrc_core.Lfrc.alloc env node in
              Lfrc_core.Lfrc.store_alloc env ~dst:c p
          | _ ->
              ignore
                (Lfrc_core.Lfrc.cas env c ~old_ptr:!(ls.(0))
                   ~new_ptr:!(ls.(1)))
        done)
  in
  let domains = List.init n_domains (fun w -> Domain.spawn (worker w)) in
  List.iter Domain.join domains;
  checki "counts exact" 0 (List.length (Report.check_rc_exact heap));
  Array.iter (fun c -> Lfrc_core.Lfrc.store env ~dst:c Heap.null) cells;
  checki "no leaks" 0 (Heap.live_count heap)

let () =
  Alcotest.run "parallel"
    [
      ( "domains",
        [
          Alcotest.test_case "treiber stack" `Slow test_treiber_domains;
          Alcotest.test_case "michael-scott queue" `Slow test_msqueue_domains;
          Alcotest.test_case "fixed snark deque" `Slow test_fixed_snark_domains;
          Alcotest.test_case "locked deque" `Slow test_locked_deque_domains;
          Alcotest.test_case "raw lfrc ops" `Slow test_lfrc_ops_domains;
          Alcotest.test_case "skip list" `Slow test_skiplist_domains;
          Alcotest.test_case "treiber stack (deferred-rc)" `Slow
            (test_treiber_domains ~rc_mode:deferred_rc);
          Alcotest.test_case "michael-scott queue (deferred-rc)" `Slow
            (test_msqueue_domains ~rc_mode:deferred_rc);
          Alcotest.test_case "skip list (deferred-rc)" `Slow
            (test_skiplist_domains ~rc_mode:deferred_rc);
          Alcotest.test_case "dcas counters per domain" `Slow
            test_dcas_counters_domains;
          Alcotest.test_case "obs sinks per domain" `Slow test_obs_domains;
        ] );
    ]
