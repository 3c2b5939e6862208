module Heap = Lfrc_simmem.Heap
module Layout = Lfrc_simmem.Layout
module Sched = Lfrc_sched.Sched
module Strategy = Lfrc_sched.Strategy
module Rng = Lfrc_util.Rng
module Lineage = Lfrc_obs.Lineage
module Shadow = Lfrc_sanitize.Shadow
module Env = Lfrc_core.Env
module Lfrc = Lfrc_core.Lfrc
module Dcas = Lfrc_atomics.Dcas

type witness = {
  w_structure : string;
  w_schedule : string;
  w_finding : Shadow.finding;
  w_lineage : string;
}

type outcome = {
  o_structure : string;
  o_schedules : string list;
  o_totals : Shadow.totals;
  o_witnesses : witness list;
  o_aba_sites : (string * int) list;
}

let schedules ~full =
  let seeds = if full then [ 1; 2; 3; 4; 5; 6; 7; 8 ] else [ 1; 2 ] in
  Strategy.Round_robin
  :: List.concat_map
       (fun s ->
         [ Strategy.Random s; Strategy.Pct { seed = s; change_points = 3 } ])
       seeds

(* --- catalog workloads ---

   One driver per catalog entry, over the structure's LFRC instance. The
   stack/queue/deque drivers are shared with E11 ({!Common}); the snark
   (unfixed) and set instances exist only here. *)

module Snark_lfrc = Lfrc_structures.Snark.Make (Lfrc_core.Lfrc_ops)
module Dlist_lfrc = Lfrc_structures.Dlist_set.Make (Lfrc_core.Lfrc_ops)
module Skiplist_lfrc = Lfrc_structures.Skiplist.As_set (Lfrc_core.Lfrc_ops)

let generic_set_workload (module S : Lfrc_structures.Container_intf.SET)
    ~workers ~ops_per_worker ~seed env =
  let t = S.create env in
  let tids =
    List.init workers (fun w ->
        Sched.spawn (fun () ->
            let h = S.register t in
            let rng = Rng.create ((seed * 131) + w) in
            for _ = 1 to ops_per_worker do
              let k = Rng.int rng 8 in
              match Rng.int rng 4 with
              | 0 | 1 -> ignore (S.try_insert h k)
              | 2 -> ignore (S.remove h k)
              | _ -> ignore (S.contains h k)
            done;
            S.unregister h))
  in
  Sched.join tids

let snark_workload ~workers ~ops_per_worker ~seed env =
  Common.generic_deque_workload
    (module Snark_lfrc)
    ~workers ~ops_per_worker ~seed env

let dlist_workload ~workers ~ops_per_worker ~seed env =
  generic_set_workload (module Dlist_lfrc) ~workers ~ops_per_worker ~seed env

let skiplist_workload ~workers ~ops_per_worker ~seed env =
  generic_set_workload (module Skiplist_lfrc) ~workers ~ops_per_worker ~seed
    env

(* Keyed by catalog entry name; kept in catalog order so a new entry
   without a driver fails [structure_names]'s coverage test loudly. *)
let drivers =
  [
    ("treiber", Common.stack_workload);
    ("msqueue", Common.queue_workload);
    ("sundell", Common.sundell_workload);
    ("snark", snark_workload);
    ("snark-fixed", Common.deque_workload);
    ("dlist-set", dlist_workload);
    ("skiplist", skiplist_workload);
  ]

let structure_names () = List.map fst drivers

(* --- running one body under one schedule --- *)

let lineage_excerpt ln ~addr =
  if addr <= 0 then ""
  else
    let tl = Lineage.timeline ln ~addr in
    let lines = String.split_on_char '\n' tl in
    let n = List.length lines in
    let keep = 8 in
    let lines =
      if n <= keep then lines
      else
        Printf.sprintf "... (%d earlier lineage events)" (n - keep)
        :: List.filteri (fun i _ -> i >= n - keep) lines
    in
    String.concat "\n" lines

let empty_totals =
  { Shadow.checks = 0; races = 0; uaf = 0; uar = 0; aba = 0; aba_harmful = 0 }

let add_totals a (b : Shadow.totals) =
  {
    Shadow.checks = a.Shadow.checks + b.Shadow.checks;
    races = a.Shadow.races + b.Shadow.races;
    uaf = a.Shadow.uaf + b.Shadow.uaf;
    uar = a.Shadow.uar + b.Shadow.uar;
    aba = a.Shadow.aba + b.Shadow.aba;
    aba_harmful = a.Shadow.aba_harmful + b.Shadow.aba_harmful;
  }

let merge_sites acc sites =
  List.fold_left
    (fun acc (site, n) ->
      let prev = try List.assoc site acc with Not_found -> 0 in
      (site, prev + n) :: List.remove_assoc site acc)
    acc sites

let run_under ?rc_mode ~structure ~strategy ~seed body =
  let token = Strategy.describe strategy in
  let lineage = Lineage.create ~ring:128 () in
  let sanitize = Shadow.create () in
  let heap = Heap.create ~name:("sanitize:" ^ structure) () in
  let env =
    Env.create ~dcas_impl:Dcas.Atomic_step ?rc_mode ~lineage ~sanitize heap
  in
  ignore (Sched.run ~max_steps:4_000_000 strategy (fun () -> body ~seed env));
  let witnesses =
    List.map
      (fun (f : Shadow.finding) ->
        {
          w_structure = structure;
          w_schedule = token;
          w_finding = f;
          w_lineage = lineage_excerpt lineage ~addr:f.Shadow.f_addr;
        })
      (Shadow.findings sanitize)
  in
  (token, Shadow.totals sanitize, witnesses, Shadow.aba_by_site sanitize)

let run_body ?rc_mode ~structure ~schedules body =
  let tokens, totals, witnesses, sites =
    List.fold_left
      (fun (tks, tot, ws, sites) (i, strategy) ->
        let tk, t, w, s =
          run_under ?rc_mode ~structure ~strategy ~seed:(i + 1) body
        in
        (tk :: tks, add_totals tot t, ws @ w, merge_sites sites s))
      ([], empty_totals, [], [])
      (List.mapi (fun i s -> (i, s)) schedules)
  in
  {
    o_structure = structure;
    o_schedules = List.rev tokens;
    o_totals = totals;
    o_witnesses = witnesses;
    o_aba_sites =
      List.sort (fun (_, a) (_, b) -> compare b a) sites;
  }

let run_structure ?(workers = 3) ?(ops_per_worker = 40)
    ?(schedules = schedules ~full:false) ?rc_mode name =
  match List.assoc_opt name drivers with
  | None -> Error (Printf.sprintf "unknown structure %S" name)
  | Some driver ->
      Ok
        (run_body ?rc_mode ~structure:name ~schedules (fun ~seed env ->
             driver ~workers ~ops_per_worker ~seed env))

(* --- seeded-bug fixtures ---

   Each is the smallest program exhibiting one finding class, written
   against the raw substrate so the bug is in the fixture, not in LFRC.
   They are deterministic per schedule: the expected class fires under
   every schedule in the matrix, so the witness (sites, slot, class) is
   stable run to run. *)

(* Two threads plain-write the same value slot of a shared object with no
   release/acquire edge between them: the canonical data race. *)
let fixture_plain_race ~seed:_ env =
  let heap = Env.heap env in
  let d = Env.dcas env in
  let layout = Layout.make ~name:"san-race" ~n_ptrs:0 ~n_vals:1 in
  let root = Heap.root heap ~name:"race-root" () in
  let p = Lfrc.alloc env layout in
  Lfrc.store env ~dst:root p;
  Lfrc.destroy env p;
  let vc = Heap.val_cell heap p 0 in
  let tids =
    List.init 2 (fun w ->
        Sched.spawn ~name:(Printf.sprintf "racer-%d" w) (fun () ->
            Dcas.write d vc (w + 1)))
  in
  Sched.join tids;
  Lfrc.store env ~dst:root Heap.null

(* A reader that bypasses LFRCLoad: it spins on the (type-stable) count
   until the destroyer drops it to zero, then touches a value slot of the
   object it never acquired a counted reference to. Depending on where the
   schedule lands, the read hits the retire window (use-after-retire) or
   the freed object (use-after-free). *)
let fixture_use_after_retire ~seed:_ env =
  let heap = Env.heap env in
  let d = Env.dcas env in
  (* The pointer slot matters: the destroyer's teardown reads it (a yield
     point), so the retire window is wide enough for the stale reader to
     land inside it under some schedules. *)
  let layout = Layout.make ~name:"san-uar" ~n_ptrs:1 ~n_vals:1 in
  let root = Heap.root heap ~name:"uar-root" () in
  let p = Lfrc.alloc env layout in
  Lfrc.store env ~dst:root p;
  Lfrc.destroy env p;
  let rc = Heap.rc_cell heap p in
  let vc = Heap.val_cell heap p 0 in
  let dropper =
    Sched.spawn ~name:"dropper" (fun () ->
        Lfrc.store env ~dst:root Heap.null)
  in
  let reader =
    Sched.spawn ~name:"stale-reader" (fun () ->
        (* The count is 1 (the root's) until the drop; after the free the
           frozen cell reads as poison — either way, leaving 1 means the
           retire began. *)
        while Dcas.read d rc = 1 do
          ()
        done;
        ignore (Dcas.read d vc))
  in
  Sched.join [ dropper; reader ]

(* The motivating ABA: a raw (uncounted) Treiber pop races a free/recycle/
   re-push of the same node. The victim's CAS succeeds against the
   recycled incarnation — old value equal, generation different. *)
let fixture_aba_pop ~seed:_ env =
  let heap = Env.heap env in
  let d = Env.dcas env in
  let layout = Layout.make ~name:"san-aba" ~n_ptrs:1 ~n_vals:0 in
  let root = Heap.root heap ~name:"aba-top" () in
  let flag = Heap.root heap ~name:"aba-flag" () in
  let a = Heap.alloc heap layout in
  Dcas.write d root a;
  let victim =
    Sched.spawn ~name:"victim" (fun () ->
        let top = Dcas.read d root in
        while Dcas.read d flag = 0 do
          ()
        done;
        (* CAS against the value observed before the recycle. *)
        ignore (Dcas.cas d root top Heap.null))
  in
  let recycler =
    Sched.spawn ~name:"recycler" (fun () ->
        ignore (Dcas.cas d root a Heap.null);
        Heap.free heap a;
        let a' = Heap.alloc heap layout in
        Dcas.write d root a';
        Dcas.write d flag 1)
  in
  Sched.join [ victim; recycler ];
  (* Tidy the raw node so the fixture's only complaint is the ABA. *)
  let leftover = Dcas.read d root in
  if leftover <> Heap.null then begin
    Dcas.write d root Heap.null;
    Heap.free heap leftover
  end

(* A torn weight handoff: the wait-free mode's discipline is that count
   weight only moves through atomic fetch-adds on the count cell or
   inside a thread-local pouch. This fixture breaks it — two threads
   split the same weight word (modeled as a value slot of a published
   object) with a plain read-modify-write, so one of the two splits is
   lost. The sanitizer sees the unsynchronized slot accesses as a data
   race; the lost update is exactly the torn handoff the weight
   invariant forbids. *)
let fixture_torn_weight ~seed:_ env =
  let heap = Env.heap env in
  let d = Env.dcas env in
  let layout = Layout.make ~name:"san-torn-weight" ~n_ptrs:0 ~n_vals:1 in
  let root = Heap.root heap ~name:"weight-root" () in
  let p = Lfrc.alloc env layout in
  Lfrc.store env ~dst:root p;
  Lfrc.destroy env p;
  (* the value slot stands in for the object's weight word *)
  let wc = Heap.val_cell heap p 0 in
  Dcas.write d wc 64;
  let tids =
    List.init 2 (fun w ->
        Sched.spawn ~name:(Printf.sprintf "splitter-%d" w) (fun () ->
            (* plain read-modify-write: take half the weight for a
               handoff, leave the rest — not a fetch-add, so the two
               splits can interleave and tear *)
            let cur = Dcas.read d wc in
            Dcas.write d wc (cur - (cur / 2))))
  in
  Sched.join tids;
  Lfrc.store env ~dst:root Heap.null

let fixtures =
  [
    ("plain-race", [ Shadow.Race ]);
    ("torn-weight", [ Shadow.Race ]);
    ("use-after-retire", [ Shadow.Use_after_retire; Shadow.Use_after_free ]);
    ("aba-pop", [ Shadow.Aba ]);
  ]

let fixture_bodies =
  [
    ("plain-race", fixture_plain_race);
    ("torn-weight", fixture_torn_weight);
    ("use-after-retire", fixture_use_after_retire);
    ("aba-pop", fixture_aba_pop);
  ]

let run_fixture name =
  match List.assoc_opt name fixture_bodies with
  | None -> Error (Printf.sprintf "unknown fixture %S" name)
  | Some body ->
      Ok
        (run_body ~structure:("fixture:" ^ name)
           ~schedules:[ Strategy.Round_robin; Strategy.Random 1 ]
           body)

let fixture_detected outcome =
  let fixture =
    match String.index_opt outcome.o_structure ':' with
    | Some i ->
        String.sub outcome.o_structure (i + 1)
          (String.length outcome.o_structure - i - 1)
    | None -> outcome.o_structure
  in
  match List.assoc_opt fixture fixtures with
  | None -> false
  | Some accepted ->
      List.exists
        (fun w -> List.mem w.w_finding.Shadow.f_kind accepted)
        outcome.o_witnesses
