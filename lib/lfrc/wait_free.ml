(* Wait-free weighted rc (Blelloch–Wei split counts).

   The count word holds the object's *total weight*: the sum over every
   live reference of the weight that reference carries. Heap slots carry
   weight in [slots] (absent = 1); each thread's locals pool theirs in
   its pouch (addr -> (w, n): n covered refs sharing w pooled weight,
   w >= n; untracked refs carry implicit weight 1) — the side-table
   stand-in for the weight bits a real implementation packs into each
   pointer word. Count adjustments are single [Dcas.fetch_add]s — no
   retry loop anywhere on the rc path — and most copies/destroys move
   weight between carriers without touching the count at all. The
   Figure-2 DCAS survives only as [load]'s fallback on an exhausted
   slot. The weight invariant, fallback conditions and crash-recovery
   adoption are argued in DESIGN.md §17. *)

module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Dcas = Lfrc_atomics.Dcas
module Metrics = Lfrc_obs.Metrics
module Obs = Lfrc_obs.Obs

module Make (P : sig
  val weight : int
end) =
struct
  type env = Env.t

  let null = Heap.null
  let weight = P.weight

  (* Every operation on the tables is mutex-only, so each is atomic with
     respect to simulated interleaving, which is exactly the atomicity a
     real implementation gets from packing the weight bits into the
     pointer word it updates with one RMW. Slot entries are removed in
     the same atomic step that nulls or overwrites the slot, so recycled
     cell ids never inherit stale weight. *)
  let pools : (int, (int, int * int) Hashtbl.t) Hashtbl.t = Hashtbl.create 8
  let slots : (int, int) Hashtbl.t = Hashtbl.create 64
  let lock = Mutex.create ()

  let pool_of tid =
    match Hashtbl.find_opt pools tid with
    | Some p -> p
    | None ->
        let p = Hashtbl.create 16 in
        Hashtbl.add pools tid p;
        p

  let my_pool () = pool_of (Lfrc_sched.Sched.self ())

  (* Merge [w] weight covering [n] more refs into [pool]'s entry. *)
  let merge pool addr (w, n) =
    match Hashtbl.find_opt pool addr with
    | Some (w0, n0) -> Hashtbl.replace pool addr (w0 + w, n0 + n)
    | None -> Hashtbl.add pool addr (w, n)

  let pool_add ~addr ~w ~n =
    Mutex.lock lock;
    merge (my_pool ()) addr (w, n);
    Mutex.unlock lock

  (* If the calling thread's entry for [addr] passes [ok w n], move it by
     ([dw], [dn]) and return [true]. *)
  let pool_shift ~addr ~ok ~dw ~dn =
    Mutex.lock lock;
    let pool = my_pool () in
    let moved =
      match Hashtbl.find_opt pool addr with
      | Some (w, n) when ok w n ->
          Hashtbl.replace pool addr (w + dw, n + dn);
          true
      | _ -> false
    in
    Mutex.unlock lock;
    moved

  let pool_try_share ~addr = pool_shift ~addr ~ok:(fun w n -> w > n) ~dw:0 ~dn:1

  let pool_try_drop_shared ~addr =
    pool_shift ~addr ~ok:(fun _ n -> n > 1) ~dw:0 ~dn:(-1)

  let pool_give ~addr ~w = pool_shift ~addr ~ok:(fun _ _ -> true) ~dw:w ~dn:0

  let pool_weight ~addr =
    Mutex.lock lock;
    let w =
      match Hashtbl.find_opt (my_pool ()) addr with Some (w, _) -> w | None -> 1
    in
    Mutex.unlock lock;
    w

  let pool_remove ~addr =
    Mutex.lock lock;
    Hashtbl.remove (my_pool ()) addr;
    Mutex.unlock lock

  let pool_take_for_transfer ~addr =
    Mutex.lock lock;
    let pool = my_pool () in
    let w =
      match Hashtbl.find_opt pool addr with
      | Some (w, 1) ->
          Hashtbl.remove pool addr;
          w
      | Some (w, n) ->
          (* Other covered refs keep their pooled weight; the transferred
             reference leaves with the minimum (w >= n keeps every
             remaining ref covered). *)
          Hashtbl.replace pool addr (w - 1, n - 1);
          1
      | None -> 1
    in
    Mutex.unlock lock;
    w

  (* Slot-table access; the caller holds the lock. *)
  let slot_weight id =
    match Hashtbl.find_opt slots id with Some w -> w | None -> 1

  let set_slot id w =
    if w = 1 then Hashtbl.remove slots id else Hashtbl.replace slots id w

  let slot_take ~cell =
    let id = Cell.id cell in
    Mutex.lock lock;
    let w = slot_weight id in
    Hashtbl.remove slots id;
    Mutex.unlock lock;
    w

  let slot_set ~cell ~w =
    Mutex.lock lock;
    set_slot (Cell.id cell) w;
    Mutex.unlock lock

  let slot_give ~cell ~w =
    let id = Cell.id cell in
    Mutex.lock lock;
    set_slot id (slot_weight id + w);
    Mutex.unlock lock

  let slot_try_borrow ~cell =
    let id = Cell.id cell in
    Mutex.lock lock;
    let w = slot_weight id in
    if w >= 2 then set_slot id (w - 1);
    Mutex.unlock lock;
    w >= 2

  let bind_rc env p =
    let rc = Heap.rc_cell (Env.heap env) p in
    Lfrc_obs.Blame.bind_owner (Env.obs env).blame ~cell:(Cell.id rc) ~addr:p;
    rc

  (* Load: the slot read and the weight borrow are one atomic step — the
     simulator analogue of the single RMW a real implementation issues on
     the packed (pointer, weight) word. Disabled under [Software_mcas],
     whose cells can transiently hold descriptor words a raw peek must
     not trust. *)
  let borrow env ~src a =
    Dcas.impl (Env.dcas env) <> Dcas.Software_mcas
    && slot_try_borrow ~cell:src
    && begin
         (* Same no-yield window as the read: the slot still holds [a],
            so the borrowed unit provably covers a live reference. *)
         pool_add ~addr:a ~w:1 ~n:1;
         Metrics.incr (Env.metrics env) "lfrc.weight_borrow";
         Obs.record (Env.obs env) ~addr:a Wborrow;
         true
       end

  (* The exhaustion fallback minted [weight + 1] while atomically checking
     the slot still holds [a]: [weight] refills the slot, so the next
     [weight] loads borrow again, and 1 covers the new reference. Its
     retries count as [lfrc.load_retry], so [lfrc.rc_retry] stays exactly
     0 in this mode. *)
  let load_weight = weight + 1

  let loaded env ~src a =
    slot_give ~cell:src ~w:weight;
    pool_add ~addr:a ~w:1 ~n:1;
    Metrics.incr (Env.metrics env) "lfrc.weight_exhaust"

  (* Publication mints a whole batch with one fetch-add; the registry entry
     carries the batch size so a crash before the CAS resolves is
     compensated weight-exactly by recovery. *)
  let publish env p =
    if p <> null then begin
      let prev = Dcas.fetch_add (Env.dcas env) (bind_rc env p) weight in
      (* Atomic with the add: the speculative batch is never unanchored. *)
      Env.begin_publish ~weight env p;
      Metrics.incr (Env.metrics env) "lfrc.weight_pub";
      Obs.record_rc (Env.obs env) ~addr:p ~old_rc:prev ~delta:weight
    end

  (* Copy: cover the new reference from the thread's pooled weight when
     the pouch has spare units (no shared-memory traffic at all); refill
     the pouch with a whole fetch-add batch otherwise. Either way, no
     compare loop and no publication record. *)
  let acquire env w =
    if w <> null then
      if pool_try_share ~addr:w then begin
        Metrics.incr (Env.metrics env) "lfrc.weight_share";
        Obs.record (Env.obs env) ~addr:w Wshare
      end
      else begin
        let prev = Dcas.fetch_add (Env.dcas env) (bind_rc env w) weight in
        (* Atomic with the add: pouch the batch before any yield. *)
        pool_add ~addr:w ~w:weight ~n:1;
        Metrics.incr (Env.metrics env) "lfrc.weight_refill";
        Obs.record_rc (Env.obs env) ~addr:w ~old_rc:prev ~delta:weight
      end

  (* A winning publish over [cell] that replaced [oldv]: claim the old
     pointer's slot weight into the pouch (registering its pending drop),
     then install the new pointer's slot weight — the published batch, or
     the weight an owned reference carried (taken from the pouch first)
     — all in the CAS's atomic step. Claiming old-first keeps the ledger
     right when the CAS reinstalls the same pointer. *)
  let swap env ~cell ~oldv ~newv ~owned =
    let neww =
      if newv = null then 1
      else if owned then pool_take_for_transfer ~addr:newv
      else weight
    in
    if oldv <> null then begin
      Env.begin_destroy env oldv;
      pool_add ~addr:oldv ~w:(slot_take ~cell) ~n:1
    end
    else ignore (slot_take ~cell);
    if newv <> null then slot_set ~cell ~w:neww

  let claim env ~cell ~oldv ~newv = swap env ~cell ~oldv ~newv ~owned:false
  let drop = Eager.drop

  let installed env ~cell ~oldv ~newv ~owned =
    swap env ~cell ~oldv ~newv ~owned;
    if oldv <> null then Lfrc.destroy_registered env oldv

  (* Return an unspent publication batch after a failed CAS. Preferred:
     merge it into the thread's pouch entry for [p] (the caller's local
     still covers it). With no entry to absorb into, return it through the
     count word as a phantom-reference drop — which also handles the case
     where the publication was the last thing keeping [p] alive. *)
  let give_back env p =
    if p <> null && not (pool_give ~addr:p ~w:weight) then begin
      pool_add ~addr:p ~w:weight ~n:1;
      drop env p
    end

  (* Fast path: the ref was pool-covered alongside others — uncover it,
     weight stays pooled, no heap traffic. Slow path: flush the ref's
     whole carried weight with one fetch-add. Zero-detect is exact: only
     the add that returns prev = w observed every other carrier's weight
     already gone. *)
  let release env p =
    if pool_try_drop_shared ~addr:p then begin
      Metrics.incr (Env.metrics env) "lfrc.weight_absorb";
      Env.end_destroy env p;
      false
    end
    else begin
      let w = pool_weight ~addr:p in
      let prev = Dcas.fetch_add (Env.dcas env) (bind_rc env p) (-w) in
      (* No yield since the add landed: removing the pouch entry is atomic
         with it, so a crashed thread can never double-spend its weight
         (a crash at the add's own yield point means nothing happened and
         the pouch is intact). *)
      pool_remove ~addr:p;
      Metrics.incr (Env.metrics env) "lfrc.weight_release";
      Obs.record_rc (Env.obs env) ~addr:p ~old_rc:prev ~delta:(-w);
      Lfrc.released env p (prev = w)
    end

  (* The claimed child's slot weight moves to the pouch in the same atomic
     step that nulls the slot, then flushes in one fetch-add inside
     [release], so the weight ledger never dangles. *)
  let claim_child _ ~cell child = pool_add ~addr:child ~w:(slot_take ~cell) ~n:1

  let orphan env ~cell child =
    claim_child env ~cell child;
    Cell.set cell null;
    drop env child

  let flush _ = 0

  (* Merge the crashed threads' pouches into the adopter's before any
     adoption destroy runs, so each orphaned reference released by the
     recovery pass finds its pooled weight and the ledger balances
     exactly as in a live release. *)
  let adopt env ~crashed =
    let me = Lfrc_sched.Sched.self () in
    Mutex.lock lock;
    let mine = pool_of me in
    let merged = ref 0 in
    List.iter
      (fun tid ->
        if tid <> me then
          match Hashtbl.find_opt pools tid with
          | Some pool ->
              Hashtbl.iter
                (fun addr e ->
                  incr merged;
                  merge mine addr e)
                pool;
              Hashtbl.remove pools tid
          | None -> ())
      crashed;
    Mutex.unlock lock;
    if !merged > 0 then Metrics.add (Env.metrics env) "lfrc.adopt_weight" !merged;
    !merged

  (* The registry entry carries the whole published batch; pouching it
     makes the adoption destroy return exactly what the fetch-add
     minted. *)
  let adopt_publication _ p ~weight = pool_add ~addr:p ~w:weight ~n:1

  let anchors _ =
    Mutex.lock lock;
    let addrs =
      Hashtbl.fold
        (fun _tid pool acc -> Hashtbl.fold (fun addr _ acc -> addr :: acc) pool acc)
        pools []
    in
    Mutex.unlock lock;
    addrs
end

let create ~weight : Env.rc =
  (module Make (struct
    let weight = weight
  end))
