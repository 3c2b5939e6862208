(* One timed window on real domains: set up (repeatedly, for the setup
   time), run every worker in a closed loop over its pregenerated op
   stream until the deadline, then check the outputs at quiescence. *)

module Env = Lfrc_core.Env
module Heap = Lfrc_simmem.Heap
module Dcas = Lfrc_atomics.Dcas

type result = {
  setup_ns : int list;  (** one per setup performed *)
  ops : int;
  wall_ns : int;  (** go signal to the last worker's last op *)
  slice_tput : float list;  (** ops/s in each whole slice of the window *)
  hist : Hist.t;  (** per-op latency, ns *)
  live_sum : int;
  live_samples : int;
  minor_words : float;  (** summed over the workers' windows *)
  finish_skew_ns : int;  (** first to last worker finish *)
  dcas : Dcas.counters;  (** delta over the window *)
  allocs : int;
  frees : int;
  peak_live : int;
  spans : Spans.totals;
  settle_flushes : int;
  settle_flush_ns : int;  (** the quiescent [Lfrc.flush] after the window *)
  exhausted : bool;  (** some worker ran out of stream before the deadline *)
  checks : (string * bool) list;
}

(* Several windows as one: sums, concatenations, merged histograms. *)
let merge rs =
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  {
    setup_ns = List.concat_map (fun r -> r.setup_ns) rs;
    ops = sum (fun r -> r.ops);
    wall_ns = sum (fun r -> r.wall_ns);
    slice_tput = List.concat_map (fun r -> r.slice_tput) rs;
    hist = Hist.merge (List.map (fun r -> r.hist) rs);
    live_sum = sum (fun r -> r.live_sum);
    live_samples = sum (fun r -> r.live_samples);
    minor_words = List.fold_left (fun a r -> a +. r.minor_words) 0. rs;
    finish_skew_ns = sum (fun r -> r.finish_skew_ns);
    dcas = List.fold_left (fun a r -> Counts.add a r.dcas) Counts.zero rs;
    allocs = sum (fun r -> r.allocs);
    frees = sum (fun r -> r.frees);
    peak_live = List.fold_left (fun a r -> max a r.peak_live) 0 rs;
    spans = Spans.sum_totals (List.map (fun r -> r.spans) rs);
    settle_flushes = sum (fun r -> r.settle_flushes);
    settle_flush_ns = sum (fun r -> r.settle_flush_ns);
    exhausted = List.exists (fun r -> r.exhausted) rs;
    checks = List.concat_map (fun r -> r.checks) rs;
  }

let live_every = 64
let slice_ns = 250_000_000

(* The main domain waits by sleeping, so it never takes a core from the
   workers for longer than a wake-up. *)
let wait_until ~poll_s cond =
  while not (cond ()) do
    Unix.sleepf poll_s
  done

module Make (D : Drivers.S) = struct
  type set_up = {
    env : Env.t;
    t : D.t;
    go : int Atomic.t;
    deadline : int Atomic.t;
    finished : int Atomic.t;
    release : bool Atomic.t;
    doms : unit Domain.t array;
  }

  type worker_out = {
    mutable n_done : int;
    mutable finish : int;
    mutable live_sum : int;
    mutable live_n : int;
    mutable minor : float;
  }

  (* Phases of the go flag. *)
  let waiting = 0
  let running = 1
  let aborting = 2

  let run ~(env_of : unit -> Env.t) ~(spec : Drivers.spec) ~window_ns ~setups
      ~traced =
    let workers = Array.length spec.streams in
    let results =
      Array.map (fun s -> Array.make (Array.length s) 0) spec.streams
    in
    let hists = Array.init workers (fun _ -> Hist.create ()) in
    let bufs = Array.init workers (fun _ -> Spans.create ()) in
    let n_slices = window_ns / slice_ns in
    let slices = Array.init workers (fun _ -> Array.make (n_slices + 1) 0) in
    let outs =
      Array.init workers (fun _ ->
          { n_done = 0; finish = 0; live_sum = 0; live_n = 0; minor = 0. })
    in
    let worker ~heap ~t ~go ~deadline ~ready ~finished ~release w () =
      let buf = bufs.(w) and ops = spec.streams.(w) and res = results.(w) in
      let hist = hists.(w) and out = outs.(w) and slices = slices.(w) in
      Spans.set_domain_buf buf;
      let h = D.register t ~worker:w in
      Atomic.incr ready;
      (* Sleep, not spin, until go: a spinning worker would take a core
         from the main domain while it spawns the other workers. *)
      wait_until ~poll_s:50e-6 (fun () -> Atomic.get go <> waiting);
      if Atomic.get go = running then begin
        let deadline = Atomic.get deadline and n = Array.length ops in
        let t_go = deadline - window_ns in
        let id0 = w lsl 32 in
        let m0 = Gc.minor_words () in
        if traced then Spans.arm buf;
        let i = ref 0 and last = ref 0 in
        while !i < n && !last < deadline do
          let t0 = Bclock.now_ns () in
          Spans.op_begin buf ~id:(id0 + !i) ~t0;
          res.(!i) <- D.apply h ops.(!i);
          let t1 = Bclock.now_ns () in
          Spans.op_end buf ~t1;
          Hist.record hist (t1 - t0);
          let sl = min n_slices ((t1 - t_go) / slice_ns) in
          slices.(sl) <- slices.(sl) + 1;
          if !i land (live_every - 1) = 0 then begin
            out.live_sum <- out.live_sum + Heap.live_count heap;
            out.live_n <- out.live_n + 1
          end;
          last := t1;
          incr i
        done;
        out.minor <- Gc.minor_words () -. m0;
        Spans.disarm buf;
        out.n_done <- !i;
        out.finish <- !last
      end;
      (* Hold the handle until the main domain has read the counters, so
         unregistration (a flush in deferred mode) stays out of them. *)
      Atomic.incr finished;
      while not (Atomic.get release) do
        Domain.cpu_relax ()
      done;
      D.unregister h
    in
    (* Env creation, prefill, domain spawn and per-worker registration;
       returns its duration and the ready-to-go set-up. *)
    let setup () =
      let t0 = Bclock.now_ns () in
      let env = env_of () in
      let t = D.create env in
      let h = D.register t ~worker:workers in
      Array.iter (fun o -> ignore (D.apply h o)) spec.prefill;
      D.unregister h;
      let go = Atomic.make waiting and ready = Atomic.make 0 in
      let deadline = Atomic.make max_int in
      let finished = Atomic.make 0 and release = Atomic.make false in
      let doms =
        Array.init workers (fun w ->
            Domain.spawn
              (worker ~heap:(Env.heap env) ~t ~go ~deadline ~ready ~finished
                 ~release w))
      in
      wait_until ~poll_s:50e-6 (fun () -> Atomic.get ready = workers);
      (Bclock.now_ns () - t0, { env; t; go; deadline; finished; release; doms })
    in
    (* All but the last set-up are timed and torn down unused. *)
    let rec setups_loop k acc =
      let ns, s = setup () in
      if k <= 1 then (List.rev (ns :: acc), s)
      else begin
        Atomic.set s.release true;
        Atomic.set s.go aborting;
        Array.iter Domain.join s.doms;
        D.destroy s.t;
        ignore (Lfrc_core.Lfrc.flush s.env);
        setups_loop (k - 1) (ns :: acc)
      end
    in
    let setup_ns, { env; t; go; deadline; finished; release; doms } =
      setups_loop setups []
    in
    let heap = Env.heap env and dcas = Env.dcas env in
    let dcas_before = Dcas.counters dcas and heap_before = Heap.stats heap in
    let t_go = Bclock.now_ns () in
    Atomic.set deadline (t_go + window_ns);
    Atomic.set go running;
    Unix.sleepf (float_of_int window_ns /. 1e9);
    wait_until ~poll_s:1e-3 (fun () -> Atomic.get finished = workers);
    let dcas_after = Dcas.counters dcas and heap_after = Heap.stats heap in
    Atomic.set release true;
    Array.iter Domain.join doms;
    let finishes = Array.map (fun o -> o.finish) outs in
    let last = Array.fold_left max min_int finishes in
    let first = Array.fold_left min max_int finishes in
    let n_done = Array.map (fun o -> o.n_done) outs in
    (* Quiescent checks, outside the window. *)
    let f0 = Bclock.now_ns () in
    ignore (Lfrc_core.Lfrc.flush env);
    let settle_flush_ns = Bclock.now_ns () - f0 in
    let exact_counts =
      match Env.rc_mode env with
      | Env.Eager | Env.Deferred_rc _ ->
          [ ("rc-exact", Lfrc_simmem.Report.check_rc_exact heap = []) ]
      | Env.Wait_free _ -> []
    in
    let h = D.register t ~worker:workers in
    let contents = D.contents h in
    D.unregister h;
    let checks = spec.check ~n_done ~results ~contents in
    D.destroy t;
    ignore (Lfrc_core.Lfrc.flush env);
    let checks =
      checks @ exact_counts @ [ ("heap-empty", Heap.live_count heap = 0) ]
    in
    {
      setup_ns;
      ops = Array.fold_left ( + ) 0 n_done;
      wall_ns = last - t_go;
      slice_tput =
        List.init n_slices (fun k ->
            float_of_int (Array.fold_left (fun a s -> a + s.(k)) 0 slices)
            *. 1e9 /. float_of_int slice_ns);
      hist = Hist.merge (Array.to_list hists);
      live_sum = Array.fold_left (fun a o -> a + o.live_sum) 0 outs;
      live_samples = Array.fold_left (fun a o -> a + o.live_n) 0 outs;
      minor_words = Array.fold_left (fun a o -> a +. o.minor) 0. outs;
      finish_skew_ns = last - first;
      dcas = Counts.sub dcas_after dcas_before;
      allocs = heap_after.allocs - heap_before.allocs;
      frees = heap_after.frees - heap_before.frees;
      peak_live = heap_after.peak_live;
      spans = Spans.totals (Array.to_list bufs);
      settle_flushes = 1;
      settle_flush_ns;
      exhausted =
        Array.exists2 (fun o s -> o.n_done = Array.length s) outs spec.streams;
      checks;
    }
end
