module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell
module Env = Lfrc_core.Env
module Lfrc = Lfrc_core.Lfrc
module Dcas = Lfrc_atomics.Dcas
module Mcas = Lfrc_atomics.Mcas
module Metrics = Lfrc_obs.Metrics
module Lineage = Lfrc_obs.Lineage

type report = {
  crashed : int list;
  rc_settled : int;
  destroys_completed : int;
  publications_compensated : int;
  guards_released : int;
  descriptors_helped : int;
  epochs_evicted : int;
  freed : int;
}

let null = Heap.null

let run env ~crashed =
  let heap = Env.heap env in
  let metrics = Env.metrics env in
  let lineage = (Env.obs env).lineage in
  let live_before = Heap.live_count heap in

  (* 1. Count-delivery state first (the mode's [adopt]): deferred-rc
     re-parks a crashed flusher's staged deltas and clears the flag, so
     the adoption destroys below (and the final settling flush) can run
     the flush themselves, and counts the dead threads' parked buffers,
     which settle at the final flush; wait-free merges the dead threads'
     weight pouches into the adopter's before any adoption destroy runs,
     so each orphaned reference released below finds its pooled weight. *)
  let (module Mode) = Env.rc env in
  let rc_settled = Mode.adopt env ~crashed in

  (* 2. Help every MCAS descriptor the dead threads left in flight to a
     decision, so no DCAS is ever half-applied and the audit sees plain
     values in every cell. Idempotent: live helpers may already have
     finished these. *)
  let descriptors_helped =
    if Dcas.impl (Env.dcas env) = Dcas.Software_mcas then
      List.fold_left (fun acc tid -> acc + Mcas.adopt_slot tid) 0 crashed
    else 0
  in
  if descriptors_helped > 0 then
    Metrics.add metrics "lfrc.adopt_descriptor" descriptors_helped;

  (* 3. Reclamation schemes registered through the environment's hook
     table (epoch pins, hazard slots): evict the dead threads' slots so
     deferred frees resume. Crashes land at yield points, never
     mid-dereference, so clearing their protections is safe. *)
  let epochs_evicted = Env.run_recovery_hooks env ~crashed in

  (* 4. Adopt the orphaned references, per crashed owner so each Adopt
     lineage event names who lost it. Every adoption action is a
     decrement that goes through the normal destroy path, which frees
     only at count zero — so the order among owners cannot matter. *)
  let destroys_completed = ref 0 in
  let publications_compensated = ref 0 in
  let guards_released = ref 0 in
  let adopt_one ~owner p =
    Lineage.record lineage ~op:"recover" ~addr:p (Lineage.Adopt { owner });
    Lfrc.destroy env p
  in
  List.iter
    (fun owner ->
      (* Committed-but-unfinished drops from the destroy registry. Count
         zero on a live object means the owner died mid-teardown;
         anything else means the drop itself never landed. *)
      List.iter
        (fun p ->
          if Heap.is_live heap p then begin
            incr destroys_completed;
            Lineage.record lineage ~op:"recover" ~addr:p
              (Lineage.Adopt { owner });
            if Cell.get (Heap.rc_cell heap p) = 0 then
              Lfrc.finish_teardown env p
            else Lfrc.destroy env p
          end)
        (Env.adopt_destroying env ~tids:[ owner ]);
      (* Speculative count raises made ahead of a publishing CAS that
         never resolved: compensate each with a destroy. In wait-free
         mode the registry entry carries the whole published weight
         batch; pouching it first makes the adoption destroy return
         exactly what the fetch-add minted. *)
      List.iter
        (fun (p, w) ->
          if p <> null && Heap.is_live heap p then begin
            incr publications_compensated;
            Mode.adopt_publication env p ~weight:w;
            adopt_one ~owner p
          end)
        (Env.adopt_publications env ~tids:[ owner ]);
      (* Registered local frames (operation-context guards): release
         every reference the dead thread still held. *)
      List.iter
        (fun (fr_owner, refs) ->
          List.iter
            (fun p ->
              if p <> null && Heap.is_live heap p then begin
                incr guards_released;
                adopt_one ~owner:fr_owner p
              end)
            refs)
        (Env.adopt_locals env ~tids:[ owner ]))
    crashed;

  let rc_adopted =
    rc_settled + !destroys_completed + !publications_compensated
  in
  if rc_adopted > 0 then Metrics.add metrics "lfrc.adopt_rc" rc_adopted;
  if !guards_released > 0 then
    Metrics.add metrics "lfrc.adopt_guard" !guards_released;

  (* 5. Settle: one final flush lands every parked delta — the dead
     threads' own, the restaged ones, and whatever the adoption destroys
     parked — and cascades the resulting zero-count destroys. *)
  Lfrc.settle env;

  {
    crashed;
    rc_settled;
    destroys_completed = !destroys_completed;
    publications_compensated = !publications_compensated;
    guards_released = !guards_released;
    descriptors_helped;
    epochs_evicted;
    freed = live_before - Heap.live_count heap;
  }

let total r =
  r.rc_settled + r.destroys_completed + r.publications_compensated
  + r.guards_released + r.descriptors_helped + r.epochs_evicted

let pp ppf r =
  Format.fprintf ppf
    "recovered from %d crash(es): rc_settled=%d destroys=%d publications=%d \
     guards=%d descriptors=%d epochs=%d freed=%d"
    (List.length r.crashed) r.rc_settled r.destroys_completed
    r.publications_compensated r.guards_released r.descriptors_helped
    r.epochs_evicted r.freed
