(* Tests for the deterministic scheduler, strategies, traces and the
   exhaustive explorer. *)

module Sched = Lfrc_sched.Sched
module Strategy = Lfrc_sched.Strategy
module Trace = Lfrc_sched.Trace
module Explore = Lfrc_sched.Explore

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_runs_to_completion () =
  let hits = ref 0 in
  let o =
    Sched.run Strategy.Round_robin (fun () ->
        for _ = 1 to 5 do
          Sched.point ();
          incr hits
        done)
  in
  checki "all iterations ran" 5 !hits;
  checkb "steps counted" true (o.Sched.steps > 0)

let test_spawn_runs_all () =
  let done_ = Array.make 4 false in
  ignore
    (Sched.run (Strategy.Random 1) (fun () ->
         for i = 0 to 3 do
           ignore
             (Sched.spawn (fun () ->
                  Sched.point ();
                  done_.(i) <- true))
         done));
  Array.iteri (fun i d -> checkb (Printf.sprintf "thread %d ran" i) true d) done_

let test_deterministic_same_seed () =
  let trace_of seed =
    let body () =
      let r = ref 0 in
      for _ = 1 to 3 do
        ignore
          (Sched.spawn (fun () ->
               Sched.point ();
               incr r;
               Sched.point ()))
      done
    in
    let o = Sched.run ~record:true (Strategy.Random seed) body in
    Trace.chosen (Option.get o.Sched.trace)
  in
  Alcotest.(check (array int)) "same seed same schedule" (trace_of 5) (trace_of 5);
  checkb "different seeds usually differ" true (trace_of 5 <> trace_of 6)

let test_tid_inside () =
  let seen = ref [] in
  ignore
    (Sched.run Strategy.Round_robin (fun () ->
         ignore (Sched.spawn (fun () -> seen := Sched.tid () :: !seen));
         ignore (Sched.spawn (fun () -> seen := Sched.tid () :: !seen))));
  Alcotest.(check (list int)) "tids" [ 2; 1 ] (List.sort compare !seen |> List.rev)

(* [Sched.self] is the key of per-thread state: distinct on live domains
   (where [Sched.tid] is 0 everywhere), clear of the scheduler's 0..61,
   and the scheduler tid inside a run, whose threads all share their host
   domain's [domain_id]. *)
let test_self_identity () =
  let main = Sched.self () in
  checki "a domain's self is its domain id" (Sched.domain_id ()) main;
  let arrived = Atomic.make 0 in
  (* Checks run after the joins: Alcotest is not domain-safe. *)
  let seen =
    List.init 3 (fun _ ->
        Domain.spawn (fun () ->
            let id = Sched.self () in
            (* Stay alive until all three have drawn their ids. *)
            Atomic.incr arrived;
            while Atomic.get arrived < 3 do
              Domain.cpu_relax ()
            done;
            (id, Sched.self (), Sched.domain_id (), Sched.tid ())))
    |> List.map Domain.join
  in
  List.iter
    (fun (id, again, dom, tid) ->
      checki "stable within a domain" id again;
      checki "self = domain id" id dom;
      checki "tid is 0 on every domain" 0 tid)
    seen;
  let all = main :: List.map (fun (id, _, _, _) -> id) seen in
  checki "distinct on 3 live domains + main" 4
    (List.length (List.sort_uniq compare all));
  checkb "clear of scheduler tids" true (List.for_all (fun i -> i >= 64) all);
  let seen = ref [] in
  let note () = seen := (Sched.self (), Sched.domain_id ()) :: !seen in
  ignore
    (Sched.run Strategy.Round_robin (fun () ->
         note ();
         ignore (Sched.spawn note);
         ignore (Sched.spawn note)));
  Alcotest.(check (list (pair int int)))
    "scheduler tids inside a run, on the host domain"
    [ (0, main); (1, main); (2, main) ]
    (List.sort compare !seen);
  checki "back to the domain id after the run" main (Sched.self ())

let test_point_outside_is_noop () =
  Sched.point ();
  checkb "not active outside" false (Sched.active ())

let test_active_inside () =
  let was_active = ref false in
  ignore (Sched.run Strategy.Round_robin (fun () -> was_active := Sched.active ()));
  checkb "active inside" true !was_active

let test_spawn_outside_rejected () =
  Alcotest.check_raises "spawn outside"
    (Invalid_argument "Sched.spawn: not inside a simulation run") (fun () ->
      ignore (Sched.spawn (fun () -> ())))

let test_nested_run_rejected () =
  (* The rejection happens inside the simulated thread, so it surfaces as
     that thread's failure. *)
  checkb "nested run rejected" true
    (match
       Sched.run Strategy.Round_robin (fun () ->
           ignore (Sched.run Strategy.Round_robin (fun () -> ())))
     with
    | _ -> false
    | exception Sched.Thread_failure { exn = Invalid_argument msg; _ } ->
        msg = "Sched.run: nested simulation"
    | exception _ -> false)

let test_step_limit () =
  checkb "raises step limit" true
    (match
       Sched.run ~max_steps:100 Strategy.Round_robin (fun () ->
           while true do
             Sched.point ()
           done)
     with
    | _ -> false
    | exception Sched.Step_limit_exceeded _ -> true)

let test_thread_failure_propagates () =
  checkb "failure carries tid" true
    (match
       Sched.run (Strategy.Random 3) (fun () ->
           ignore (Sched.spawn (fun () -> failwith "boom")))
     with
    | _ -> false
    | exception Sched.Thread_failure { tid; exn = Failure msg; _ } ->
        tid = 1 && msg = "boom"
    | exception _ -> false)

let test_join_waits () =
  let order = ref [] in
  ignore
    (Sched.run (Strategy.Random 9) (fun () ->
         let t1 =
           Sched.spawn (fun () ->
               Sched.point ();
               Sched.point ();
               order := `Worker :: !order)
         in
         Sched.join [ t1 ];
         order := `Main :: !order));
  Alcotest.(check bool) "worker before main" true (!order = [ `Main; `Worker ])

let test_join_many () =
  let count = ref 0 in
  ignore
    (Sched.run (Strategy.Random 4) (fun () ->
         let tids =
           List.init 5 (fun _ ->
               Sched.spawn (fun () ->
                   Sched.point ();
                   incr count))
         in
         Sched.join tids;
         checki "all finished at join" 5 !count))

let test_per_thread_steps () =
  let o =
    Sched.run Strategy.Round_robin (fun () ->
        ignore
          (Sched.spawn (fun () ->
               Sched.point ();
               Sched.point ())))
  in
  checki "two threads tracked" 2 (Array.length o.Sched.per_thread_steps);
  checkb "worker stepped" true (o.Sched.per_thread_steps.(1) >= 2)

(* --- Trace --- *)

let test_trace_preemptions () =
  let t =
    [|
      { Trace.tid = 0; enabled = 0b11 };
      { Trace.tid = 1; enabled = 0b11 };
      (* preempt: 0 still enabled *)
      { Trace.tid = 0; enabled = 0b01 };
      (* not a preemption: 1 finished *)
    |]
  in
  checki "one preemption" 1 (Trace.preemptions t)

let test_trace_enabled_list () =
  Alcotest.(check (list int)) "decode mask" [ 0; 2 ]
    (Trace.enabled_list { Trace.tid = 0; enabled = 0b101 })

(* --- Strategies --- *)

let test_scripted_replay () =
  let body () =
    ignore (Sched.spawn (fun () -> Sched.point ()));
    ignore (Sched.spawn (fun () -> Sched.point ()))
  in
  let o = Sched.run ~record:true (Strategy.Random 17) body in
  let schedule = Trace.chosen (Option.get o.Sched.trace) in
  let o2 =
    Sched.run ~record:true
      (Strategy.Scripted { prefix = schedule; tail_seed = None })
      body
  in
  Alcotest.(check (array int)) "replay identical" schedule
    (Trace.chosen (Option.get o2.Sched.trace))

let test_scripted_divergence_detected () =
  checkb "diverged script detected" true
    (match
       Sched.run
         (Strategy.Scripted { prefix = [| 5 |]; tail_seed = None })
         (fun () -> Sched.point ())
     with
    | _ -> false
    | exception Strategy.Script_diverged _ -> true)

let test_pct_runs () =
  let o =
    Sched.run (Strategy.Pct { seed = 2; change_points = 3 }) (fun () ->
        for _ = 1 to 3 do
          ignore
            (Sched.spawn (fun () ->
                 Sched.point ();
                 Sched.point ()))
        done)
  in
  checkb "pct completes" true (o.Sched.steps > 0)

(* A fixed 4-thread run whose recorded schedule pins what each seeded
   strategy picks at every step. The threads yield 5, 7, 9 and 11 times,
   so the enabled set shrinks as they finish; [max_steps] bounds the PCT
   change points to the run's 37 steps (seed 3 draws 2, 3, 11, 14, 14,
   16, 25, 36, step 14 twice). *)
let golden_schedule strategy =
  let body () =
    for i = 1 to 4 do
      ignore
        (Sched.spawn (fun () ->
             for _ = 1 to 3 + (2 * i) do
               Sched.point ()
             done))
    done
  in
  let o = Sched.run ~max_steps:40 ~record:true strategy body in
  let chosen = Trace.chosen (Option.get o.Sched.trace) in
  String.concat "" (Array.to_list (Array.map string_of_int chosen))

let test_golden_schedules () =
  List.iter
    (fun (strategy, digest) ->
      let schedule = golden_schedule strategy in
      checki (Strategy.describe strategy ^ " steps") 37 (String.length schedule);
      Alcotest.(check string)
        (Strategy.describe strategy ^ " " ^ schedule)
        digest
        (Digest.to_hex (Digest.string schedule)))
    [
      (Strategy.Random 7, "800250cbf0f4d55f9decaedc52ad94b6");
      (Strategy.Pct { seed = 3; change_points = 8 },
       "374618642eb6fdf76881f200a7395421");
      (Strategy.Handicap { seed = 7; victim = 2; period = 3 },
       "a7d73144c4f085a9fc61b4aa7d122ed5");
      (Strategy.Scripted { prefix = [| 0; 1; 2; 3; 4; 1 |]; tail_seed = Some 7 },
       "b60fb48a540864c49b34012a285949b6");
    ]

(* Minor words one scheduler step allocates: a bare 4-thread yield loop,
   long enough that starting the run and its threads is noise. What is
   left is the continuation [Effect.perform] builds and the [Suspended]
   cell that parks it. *)
let words_per_step strategy =
  let body () =
    for _ = 1 to 4 do
      ignore
        (Sched.spawn (fun () ->
             for _ = 1 to 10_000 do
               Sched.point ()
             done))
    done
  in
  let before = Gc.minor_words () in
  let o = Sched.run strategy body in
  (Gc.minor_words () -. before) /. Float.of_int o.Sched.steps

let test_step_allocation_budget () =
  List.iter
    (fun strategy ->
      let words = words_per_step strategy in
      checkb
        (Printf.sprintf "%s: %.1f words/step <= 8" (Strategy.describe strategy)
           words)
        true (words <= 8.))
    [
      Strategy.Random 1;
      Strategy.Pct { seed = 1; change_points = 3 };
      Strategy.Round_robin;
    ]

(* --- Explore --- *)

let test_explore_finds_race () =
  let counter = ref 0 in
  let body () =
    counter := 0;
    let worker () =
      Sched.point ();
      let v = !counter in
      Sched.point ();
      counter := v + 1
    in
    ignore (Sched.spawn worker);
    ignore (Sched.spawn worker)
  in
  let check () = if !counter <> 2 then failwith "lost update" in
  match Explore.check ~body ~check () with
  | Explore.Violation { exn = Failure msg; schedule; _ } ->
      checkb "right failure" true (msg = "lost update");
      checkb "counterexample non-trivial" true (Array.length schedule > 0)
  | _ -> Alcotest.fail "expected a violation"

let test_explore_passes_atomic () =
  let counter = Atomic.make 0 in
  let body () =
    Atomic.set counter 0;
    let worker () =
      Sched.point ();
      Atomic.incr counter
    in
    ignore (Sched.spawn worker);
    ignore (Sched.spawn worker)
  in
  let check () = if Atomic.get counter <> 2 then failwith "impossible" in
  match Explore.check ~body ~check () with
  | Explore.Ok { schedules } -> checkb "explored >1 schedule" true (schedules > 1)
  | _ -> Alcotest.fail "expected OK"

let test_explore_budget () =
  let body () =
    for _ = 1 to 4 do
      ignore
        (Sched.spawn (fun () ->
             for _ = 1 to 10 do
               Sched.point ()
             done))
    done
  in
  match Explore.check ~max_schedules:5 ~body ~check:(fun () -> ()) () with
  | Explore.Budget_exhausted { schedules } -> checki "stopped at budget" 5 schedules
  | _ -> Alcotest.fail "expected budget exhaustion"

let test_explore_replay_counterexample () =
  let counter = ref 0 in
  let body () =
    counter := 0;
    let worker () =
      Sched.point ();
      let v = !counter in
      Sched.point ();
      counter := v + 1
    in
    ignore (Sched.spawn worker);
    ignore (Sched.spawn worker)
  in
  match Explore.check ~body ~check:(fun () -> if !counter <> 2 then failwith "x") () with
  | Explore.Violation { schedule; _ } ->
      let trace = Explore.replay schedule body in
      checkb "replay reproduces" true (!counter <> 2 && Array.length trace > 0)
  | _ -> Alcotest.fail "expected violation"

let () =
  Alcotest.run "sched"
    [
      ( "scheduler",
        [
          Alcotest.test_case "runs to completion" `Quick test_runs_to_completion;
          Alcotest.test_case "spawn runs all" `Quick test_spawn_runs_all;
          Alcotest.test_case "deterministic per seed" `Quick test_deterministic_same_seed;
          Alcotest.test_case "tid inside" `Quick test_tid_inside;
          Alcotest.test_case "self identity" `Quick test_self_identity;
          Alcotest.test_case "point outside noop" `Quick test_point_outside_is_noop;
          Alcotest.test_case "active inside" `Quick test_active_inside;
          Alcotest.test_case "spawn outside rejected" `Quick test_spawn_outside_rejected;
          Alcotest.test_case "nested run rejected" `Quick test_nested_run_rejected;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "thread failure" `Quick test_thread_failure_propagates;
          Alcotest.test_case "join waits" `Quick test_join_waits;
          Alcotest.test_case "join many" `Quick test_join_many;
          Alcotest.test_case "per-thread steps" `Quick test_per_thread_steps;
          Alcotest.test_case "step allocation budget" `Quick
            test_step_allocation_budget;
        ] );
      ( "trace",
        [
          Alcotest.test_case "preemptions" `Quick test_trace_preemptions;
          Alcotest.test_case "enabled list" `Quick test_trace_enabled_list;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "scripted replay" `Quick test_scripted_replay;
          Alcotest.test_case "script divergence" `Quick test_scripted_divergence_detected;
          Alcotest.test_case "pct runs" `Quick test_pct_runs;
          Alcotest.test_case "golden schedules" `Quick test_golden_schedules;
        ] );
      ( "explore",
        [
          Alcotest.test_case "finds race" `Quick test_explore_finds_race;
          Alcotest.test_case "passes atomic" `Quick test_explore_passes_atomic;
          Alcotest.test_case "budget" `Quick test_explore_budget;
          Alcotest.test_case "replay counterexample" `Quick test_explore_replay_counterexample;
        ] );
    ]
