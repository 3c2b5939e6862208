(* Deferred-rc coalescing (PPoPP-2022-style batched count updates).

   The ±1 count traffic from store/copy/cas/dcas increments and from every
   destroy is parked in per-thread buffers instead of CASing the heap
   count, and a global flush applies the per-address *net* deltas — one
   CAS per address instead of one per adjustment. [load]'s DCAS stays
   eager: it is the safety mechanism (increment-while-checking-the-
   pointer), not an accounting convenience.

   Why coalescing preserves the weak invariant: a parked +1 only ever
   under-counts (heap rc may be below the true reference count, never
   above), and a parked -1 leaves the heap rc conservatively high — an
   object is freed only by the flush, after its net delta lands at zero
   *and* a same-instant re-check shows no adjustment was parked while the
   CAS was in flight. Since in deferred mode no eager decrement exists,
   nothing else can free on a transient zero. DESIGN.md §12 carries the
   full argument. *)

module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Dcas = Lfrc_atomics.Dcas
module Metrics = Lfrc_obs.Metrics
module Lineage = Lfrc_obs.Lineage

module Make (P : sig
  val epoch : int
end) =
struct
  include Eager

  (* The buffers, keyed by thread identity ([Sched.self]) then by
     address, netted in place. They live here — not in thread-locals — so
     a crashed thread's parked deltas survive it and a later flush still
     applies them; until then the parked addresses are republished
     through [anchors] for the fault auditor. Every operation on this
     state is mutex-only (no scheduler yield points), so in a simulation
     each is atomic with respect to interleaving: a parked delta is
     either fully visible to a concurrent drain or not parked yet, never
     half-recorded. *)
  let buffers : (int, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 8
  let lock = Mutex.create ()
  let park_ops = ref 0 (* park events since the last drain *)
  let flush_tid = ref (-1) (* holder of the flush flag; -1 when free *)

  (* Deltas the in-progress flush has drained but not yet applied; keeping
     them here (not in the flusher's OCaml locals) means a crashed flusher
     loses nothing — recovery re-parks them and a later flush lands them. *)
  let applying : (int, int) Hashtbl.t = Hashtbl.create 32

  let buffer_of tid =
    match Hashtbl.find_opt buffers tid with
    | Some b -> b
    | None ->
        let b = Hashtbl.create 16 in
        Hashtbl.add buffers tid b;
        b

  (* Net [delta] into [tbl]'s entry for [addr], dropping it at zero. *)
  let net_into tbl addr delta =
    let net =
      (match Hashtbl.find_opt tbl addr with Some v -> v | None -> 0) + delta
    in
    if net = 0 then Hashtbl.remove tbl addr else Hashtbl.replace tbl addr net

  (* Remove [addr]'s parked deltas from every thread's buffer, returning
     their sum. Caller holds the lock. *)
  let take_parked addr =
    let stolen = ref 0 in
    Hashtbl.iter
      (fun _tid buf ->
        match Hashtbl.find_opt buf addr with
        | Some v ->
            stolen := !stolen + v;
            Hashtbl.remove buf addr
        | None -> ())
      buffers;
    !stolen

  let keys tbl = Hashtbl.fold (fun addr _ acc -> addr :: acc) tbl []

  let park ~addr ~delta =
    let tid = Lfrc_sched.Sched.self () in
    Mutex.lock lock;
    (* A +1 and a -1 on the same address cancel right here, without ever
       touching the heap count — the coalescing fast path. *)
    net_into (buffer_of tid) addr delta;
    incr park_ops;
    let parked = !park_ops in
    Mutex.unlock lock;
    parked

  let parked () =
    Mutex.lock lock;
    let addrs = Hashtbl.fold (fun _tid buf acc -> keys buf @ acc) buffers [] in
    Mutex.unlock lock;
    addrs

  let try_begin_flush () =
    Mutex.lock lock;
    let won = !flush_tid < 0 in
    if won then flush_tid := Lfrc_sched.Sched.self ();
    Mutex.unlock lock;
    won

  let end_flush () =
    Mutex.lock lock;
    flush_tid := -1;
    Mutex.unlock lock

  (* --- crash-safe flush staging ---

     A flush drains parked deltas into [applying] (atomically, under the
     lock) and removes each entry only once its heap effect has landed.
     The table — not the flusher's OCaml locals — is the authoritative
     record of drained-but-unapplied deltas, so a flusher that crashes
     mid-apply loses nothing: [recover_flush] re-parks the leftovers and
     releases the flush flag, and the next flush lands them. *)

  let stage () =
    Mutex.lock lock;
    Hashtbl.iter (fun _tid buf -> Hashtbl.iter (net_into applying) buf) buffers;
    Hashtbl.reset buffers;
    park_ops := 0;
    let staged = Hashtbl.fold (fun addr v acc -> (addr, v) :: acc) applying [] in
    Mutex.unlock lock;
    staged

  (* Steal any parked delta for [addr] from the buffers AND the applying
     table, returning the net. Used by the zero-detect path so a
     concurrently staged delta cannot resurrect or double-free. *)
  let absorb ~addr =
    Mutex.lock lock;
    let stolen = take_parked addr in
    let staged =
      match Hashtbl.find_opt applying addr with Some v -> v | None -> 0
    in
    Hashtbl.remove applying addr;
    Mutex.unlock lock;
    stolen + staged

  let apply_done ~addr =
    Mutex.lock lock;
    Hashtbl.remove applying addr;
    Mutex.unlock lock

  (* Fold any freshly parked deltas for [addr] into its staged entry and
     return the staged net. The entry stays staged — the caller unstages
     with [apply_done] once the heap CAS lands — so a crash in between
     loses nothing. *)
  let restage ~addr =
    Mutex.lock lock;
    let staged =
      match Hashtbl.find_opt applying addr with Some v -> v | None -> 0
    in
    let net = staged + take_parked addr in
    if net = 0 then Hashtbl.remove applying addr
    else Hashtbl.replace applying addr net;
    Mutex.unlock lock;
    net

  (* If (and only if) the thread holding the flush flag crashed, re-park
     its drained-but-unapplied deltas and release the flag. A live flusher
     always clears both itself (Fun.protect), so a stuck flag implies a
     dead owner. Returns the number of re-parked deltas. *)
  let recover_flush ~crashed =
    Mutex.lock lock;
    let n =
      if List.mem !flush_tid crashed then begin
        let n = Hashtbl.length applying in
        Hashtbl.iter (net_into (buffer_of !flush_tid)) applying;
        Hashtbl.reset applying;
        park_ops := !park_ops + n;
        flush_tid := -1;
        n
      end
      else 0
    in
    Mutex.unlock lock;
    n

  let flush env =
    if not (try_begin_flush ()) then 0
    else begin
      let metrics = Env.metrics env in
      let heap = Env.heap env in
      let d = Env.dcas env in
      let ln = Env.lineage env in
      let freed = ref 0 in
      Fun.protect ~finally:end_flush @@ fun () ->
      Metrics.incr metrics "lfrc.rc_flush";
      (* Crash safety: every delta this flush is working on lives in the
         applying table (staged atomically out of the buffers), never only
         in this function's locals. A CAS success unstages its delta in the
         same atomic step; a crash at any yield point leaves the leftovers
         staged, where they stay anchored and a recovery pass re-parks them
         for the next flush. *)
      let rec apply addr =
        if addr <> Heap.null then begin
          let rc = Heap.rc_cell heap addr in
          Lfrc_obs.Blame.bind_owner (Env.blame env) ~cell:(Cell.id rc) ~addr;
          let oldrc = Dcas.read d rc in
          (* Fold in anything parked up to this instant so the CAS below
             applies the complete net and a success at zero means zero
             adjustments remain anywhere; the net stays staged until the
             CAS lands. *)
          let v = restage ~addr in
          if v <> 0 then begin
            Metrics.incr metrics "lfrc.rc_flush_cas";
            if Dcas.cas d rc oldrc (oldrc + v) then begin
              (* No yield since the CAS: unstaging is atomic with it, so a
                 crashed flush can never re-apply a landed delta. *)
              apply_done ~addr;
              Lineage.record_rc ln ~op:"lfrc.flush" ~addr ~old_rc:oldrc ~delta:v
                ();
              Lineage.record ln ~op:"lfrc.flush" ~addr (Lineage.Flush { net = v });
              if oldrc + v = 0 then begin
                (* Still atomic with the CAS: a delta parked while it was in
                   flight (a late +1 from a racing store) resurrects the
                   object instead of freeing it. *)
                let late = absorb ~addr in
                if late <> 0 then ignore (park ~addr ~delta:late)
                else begin
                  Lfrc_sanitize.Shadow.note_dying (Env.sanitizer env) addr;
                  Env.begin_destroy env addr;
                  let n = Heap.n_ptr_slots heap addr in
                  for i = 0 to n - 1 do
                    let cell = Heap.ptr_cell heap addr i in
                    let child = Dcas.read d cell in
                    if child <> Heap.null then begin
                      (* Park the child's decrement and null the slot in one
                         atomic step: the remaining non-null slots of this
                         dead parent are exactly the drops not yet
                         committed, so an adopter resuming a crashed flush
                         never double-drops. *)
                      Lineage.record ln ~op:"lfrc.flush" ~addr:child
                        Lineage.Defer_dec;
                      ignore (park ~addr:child ~delta:(-1));
                      Cell.set cell Heap.null
                    end
                  done;
                  Metrics.incr metrics "lfrc.frees";
                  Heap.free heap addr;
                  incr freed;
                  Env.end_destroy env addr
                end
              end
            end
            else begin
              Metrics.incr metrics "lfrc.rc_retry";
              Lfrc_obs.Tracer.emit (Env.tracer env) Retry "lfrc.rc_retry";
              Lfrc_obs.Profile.op_retry (Env.profile env);
              apply addr
            end
          end
        end
      in
      let rec rounds () =
        let work = stage () in
        if work <> [] then begin
          (* Positive nets land before negative ones so a count only dips
             to zero once its pending increments are in; address order
             breaks ties for deterministic replay. *)
          let work =
            List.sort
              (fun (a1, v1) (a2, v2) ->
                if v1 <> v2 then compare v2 v1 else compare a1 a2)
              work
          in
          List.iter (fun (addr, _) -> apply addr) work;
          rounds ()
        end
      in
      rounds ();
      !freed
    end

  (* Park one counted ±1 adjustment of [p]; [settle_due] then flushes once
     the epoch's budget is spent. The caller updates the crash registry
     in between, before the flush can yield. *)
  let park_one env p delta =
    Metrics.incr (Env.metrics env)
      (if delta > 0 then "lfrc.defer_inc" else "lfrc.defer_dec");
    Lineage.record (Env.lineage env) ~addr:p
      (if delta > 0 then Lineage.Defer_inc else Lineage.Defer_dec);
    park ~addr:p ~delta

  let settle_due env parked =
    Metrics.set_gauge (Env.metrics env) "lfrc.rc_parked" parked;
    if parked >= P.epoch then ignore (flush env)

  (* The +1 exists before any heap-visible pointer justifies it (and the
     flush trigger can yield), so it is recorded as a publication right
     after it parks. *)
  let publish env p =
    if p <> Heap.null then begin
      let parked = park_one env p 1 in
      Env.begin_publish env p;
      settle_due env parked
    end

  let acquire = publish

  (* The parked -1 anchors the dropped reference by itself. *)
  let drop env p = settle_due env (park_one env p (-1))

  (* Zero detection (and the free) happens in the flush, which alone may
     move a heap count downward in this mode; a release never kills. *)
  let release env p =
    let parked = park_one env p (-1) in
    (* Parking the decrement re-anchors the drop; consuming the
       registration in the same atomic step keeps exactly one anchor. *)
    Env.end_destroy env p;
    settle_due env parked;
    false

  (* The dead threads' own buffers already live here and settle at the
     recovery pass's final flush; a crashed flusher's staging is
     re-parked first so that flush can run. *)
  let adopt _ ~crashed =
    let restaged = recover_flush ~crashed in
    Mutex.lock lock;
    let parked =
      List.fold_left
        (fun n tid ->
          match Hashtbl.find_opt buffers tid with
          | Some buf -> n + Hashtbl.length buf
          | None -> n)
        0 crashed
    in
    Mutex.unlock lock;
    restaged + parked

  (* A parked -1 means a reference died whose count adjustment has not
     landed; a parked +1 means a published pointer's count is still short.
     Either way the address is in the middle of an accounting transfer,
     so it is republished for the auditor exactly like an in-flight
     destroy. The same goes for flush-staged deltas. *)
  let anchors _ =
    let buffered = parked () in
    Mutex.lock lock;
    let staged = keys applying in
    Mutex.unlock lock;
    buffered @ staged
end

let create ~epoch : Env.rc =
  (module Make (struct
    let epoch = epoch
  end))
