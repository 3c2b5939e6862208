(* One round under the deterministic scheduler: a fresh environment on the
   Atomic_step substrate, prefill by the main simulated thread, then every
   worker as a simulated thread running its whole op stream. A round is a
   pure function of its seed and streams, so its step count and substrate
   counters repeat exactly; only the wall-clock figures vary. *)

module Env = Lfrc_core.Env
module Heap = Lfrc_simmem.Heap
module Dcas = Lfrc_atomics.Dcas
module Sched = Lfrc_sched.Sched

type round = {
  setup_ns : int;  (** env creation, structure creation and prefill *)
  ops : int;
  wall_ns : int;  (** the worker phase: spawn to join *)
  steps : int;  (** scheduler steps of the worker phase *)
  worker_steps : int array;  (** each worker thread's steps *)
  live_sum : int;
  live_samples : int;
  minor_words : float;
  dcas : Dcas.counters;  (** at the end of the worker phase *)
  dcas_start : Dcas.counters;
  heap : Heap.stats;  (** at the end of the worker phase *)
  heap_start : Heap.stats;
  checks : (string * bool) list;
}

let live_every = 16

module Make (D : Drivers.S) = struct
  (* [bufs.(w)] is worker [w]'s span buffer and [hist] collects per-op
     latencies; both are the caller's, preallocated. *)
  let round ~rc_mode ~metrics ~seed ~(spec : Drivers.spec) ~bufs ~hist
      ~traced =
    let workers = Array.length spec.streams in
    let results =
      Array.map (fun s -> Array.make (Array.length s) 0) spec.streams
    in
    let ops = Array.fold_left (fun a s -> a + Array.length s) 0 spec.streams in
    let live_sum = ref 0 and live_n = ref 0 in
    let out = ref None in
    let t0 = Bclock.now_ns () in
    let env =
      Env.create ~dcas_impl:Dcas.Atomic_step ~rc_mode ~metrics (Heap.create ())
    in
    let heap = Env.heap env and dcas = Env.dcas env in
    let worker w t =
      let buf = bufs.(w) and ops = spec.streams.(w) and res = results.(w) in
      let h = D.register t ~worker:w in
      if traced then Spans.arm buf;
      let id0 = w lsl 32 in
      Array.iteri
        (fun i o ->
          let t0 = Bclock.now_ns () in
          Spans.op_begin buf ~id:(id0 + i) ~t0;
          res.(i) <- D.apply h o;
          let t1 = Bclock.now_ns () in
          Spans.op_end buf ~t1;
          Hist.record hist (t1 - t0);
          if i land (live_every - 1) = 0 then begin
            live_sum := !live_sum + Heap.live_count heap;
            incr live_n
          end)
        ops;
      Spans.disarm buf;
      D.unregister h
    in
    (* Worker w runs as scheduler thread w + 1 (main is 0); the span
       buffers are looked up by that id. *)
    Spans.sim_bufs := Array.append [| Spans.dummy |] bufs;
    let outcome =
      Sched.run (Lfrc_sched.Strategy.Random seed) (fun () ->
          let t = D.create env in
          let h = D.register t ~worker:workers in
          Array.iter (fun o -> ignore (D.apply h o)) spec.prefill;
          D.unregister h;
          let t_setup = Bclock.now_ns () in
          let dcas_start = Dcas.counters dcas in
          let heap_start = Heap.stats heap in
          let steps0 = Sched.steps_so_far () in
          let m0 = Gc.minor_words () in
          let t_go = Bclock.now_ns () in
          let tids =
            List.init workers (fun w ->
                Sched.spawn ~name:(Printf.sprintf "w%d" w) (fun () ->
                    worker w t))
          in
          Sched.join tids;
          let t_end = Bclock.now_ns () in
          let minor = Gc.minor_words () -. m0 in
          let steps = Sched.steps_so_far () - steps0 in
          let dcas_end = Dcas.counters dcas and heap_end = Heap.stats heap in
          (* Quiescent checks, outside the timed phase. *)
          ignore (Lfrc_core.Lfrc.flush env);
          let exact =
            match rc_mode with
            | Env.Eager | Env.Deferred_rc _ ->
                [ ("rc-exact", Lfrc_simmem.Report.check_rc_exact heap = []) ]
            | Env.Wait_free _ -> []
          in
          let audit =
            Lfrc_faults.Audit.ok (Lfrc_faults.Audit.run ~strict:true env)
          in
          let h = D.register t ~worker:workers in
          let contents = D.contents h in
          D.unregister h;
          let checks =
            spec.check
              ~n_done:(Array.map Array.length spec.streams)
              ~results ~contents
          in
          D.destroy t;
          ignore (Lfrc_core.Lfrc.flush env);
          out :=
            Some
              {
                setup_ns = t_setup - t0;
                ops;
                wall_ns = t_end - t_go;
                steps;
                worker_steps = [||] (* known once the run returns *);
                live_sum = !live_sum;
                live_samples = !live_n;
                minor_words = minor;
                dcas = dcas_end;
                dcas_start;
                heap = heap_end;
                heap_start;
                checks =
                  checks @ exact
                  @ [
                      ("strict-audit", audit);
                      ("heap-empty", Heap.live_count heap = 0);
                      ( "worker-tids",
                        tids = List.init workers (fun w -> w + 1) );
                    ];
              })
    in
    Spans.sim_bufs := [||];
    match !out with
    | None -> failwith "simulated round did not finish"
    | Some r ->
        {
          r with
          worker_steps = Array.sub outcome.Sched.per_thread_steps 1 workers;
        }
end
