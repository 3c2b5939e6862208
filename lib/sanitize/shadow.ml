module Cell = Lfrc_simmem.Cell
module Heap = Lfrc_simmem.Heap
module Sched = Lfrc_sched.Sched
module Metrics = Lfrc_obs.Metrics
module Tracer = Lfrc_obs.Tracer
module Obs = Lfrc_obs.Obs

(* The scheduler caps simulations at 62 threads; fixed-width vector
   clocks keep every join/copy allocation-free. *)
let max_threads = 64

type kind = Race | Use_after_free | Use_after_retire | Aba

let kind_name = function
  | Race -> "race"
  | Use_after_free -> "use-after-free"
  | Use_after_retire -> "use-after-retire"
  | Aba -> "aba"

let kind_counter = function
  | Race -> "san.races"
  | Use_after_free -> "san.uaf"
  | Use_after_retire -> "san.uar"
  | Aba -> "san.aba_harmful"

type access = {
  a_tid : int;
  a_thread : string;
  a_site : string;
  a_step : int;
}

(* A plain access paired with the accessor's clock component at the time —
   the happens-before test is [clk <= vc_other.(a_tid)]. *)
type plain = { pa : access; clk : int }

type cell_kind = K_rc | K_ptr of int | K_val of int | K_root

type cshadow = {
  mutable c_kind : cell_kind;
  mutable c_owner : Heap.ptr; (* 0 for roots / unbound cells *)
  sync : int array; (* release clock: joined in by atomic readers *)
  mutable last_write : plain option; (* plain-access epochs (val cells) *)
  plain_reads : (int, plain) Hashtbl.t; (* tid -> last plain read *)
  mutable aba_value : int; (* mirror of the slot, atomic updates only *)
  mutable aba_version : int; (* bumped on every value-changing update *)
  aba_reads : (int, int * int * int) Hashtbl.t;
      (* tid -> (value read, version then, target generation then) *)
}

type liveness = Live | Dying of int (* destroyer tid *) | Dead

type oshadow = { mutable status : liveness; mutable o_gen : int }

type finding = {
  f_kind : kind;
  f_cell : int;
  f_slot : string;
  f_addr : Heap.ptr;
  f_gen : int;
  f_access : access;
  f_prev : access option;
  f_count : int;
  f_message : string;
}

type totals = {
  checks : int;
  races : int;
  uaf : int;
  uar : int;
  aba : int;
  aba_harmful : int;
}

type entry = { base : finding; mutable n : int }

type state = {
  vcs : int array array; (* per-thread vector clocks *)
  cells : (int, cshadow) Hashtbl.t; (* cell id -> shadow *)
  objs : (Heap.ptr, oshadow) Hashtbl.t;
  mutable heap : Heap.t option;
  mutable obs : Obs.t;
  mutable checks : int;
  mutable races : int;
  mutable uaf : int;
  mutable uar : int;
  mutable aba_all : int;
  mutable aba_harmful : int;
  dedup : (string, entry) Hashtbl.t;
  mutable order : string list; (* dedup keys, reversed insertion order *)
  aba_sites : (string, int ref) Hashtbl.t;
}

type t = Disabled | On of state

let disabled = Disabled

let enabled = function Disabled -> false | On _ -> true

let create () =
  On
    {
      vcs = Array.init max_threads (fun _ -> Array.make max_threads 0);
      cells = Hashtbl.create 256;
      objs = Hashtbl.create 64;
      heap = None;
      obs = Obs.disabled;
      checks = 0;
      races = 0;
      uaf = 0;
      uar = 0;
      aba_all = 0;
      aba_harmful = 0;
      dedup = Hashtbl.create 16;
      order = [];
      aba_sites = Hashtbl.create 16;
    }

let attach t ~heap obs =
  match t with
  | Disabled -> ()
  | On st ->
      st.heap <- Some heap;
      st.obs <- obs

(* --- vector clocks --- *)

let tick st tid = st.vcs.(tid).(tid) <- st.vcs.(tid).(tid) + 1

let acquire st tid cs =
  let v = st.vcs.(tid) in
  for i = 0 to max_threads - 1 do
    if cs.sync.(i) > v.(i) then v.(i) <- cs.sync.(i)
  done

let release st tid cs =
  let v = st.vcs.(tid) in
  for i = 0 to max_threads - 1 do
    if v.(i) > cs.sync.(i) then cs.sync.(i) <- v.(i)
  done

(* --- shadow state --- *)

let new_cshadow kind owner =
  {
    c_kind = kind;
    c_owner = owner;
    sync = Array.make max_threads 0;
    last_write = None;
    plain_reads = Hashtbl.create 4;
    aba_value = 0;
    aba_version = 0;
    aba_reads = Hashtbl.create 4;
  }

let shadow_of st c =
  let id = Cell.id c in
  match Hashtbl.find_opt st.cells id with
  | Some s -> s
  | None ->
      (* Never seen bound to an object: a heap root (or a cell allocated
         before the sanitizer attached). Atomic-pointer semantics. *)
      let s = new_cshadow K_root 0 in
      Hashtbl.add st.cells id s;
      s

let bind_object st heap p gen =
  (match Hashtbl.find_opt st.objs p with
  | Some os ->
      os.status <- Live;
      os.o_gen <- gen
  | None -> Hashtbl.add st.objs p { status = Live; o_gen = gen });
  Heap.iter_cells heap p (fun ~kind ~index cell ->
      let ck =
        match kind with
        | `Rc -> K_rc
        | `Ptr -> K_ptr index
        | `Val -> K_val index
      in
      let init = match kind with `Rc -> 1 | `Ptr | `Val -> 0 in
      match Hashtbl.find_opt st.cells (Cell.id cell) with
      | Some s ->
          (* Recycled id: this incarnation starts with fresh plain-access
             epochs (its first write must not race the previous object's
             life), but the ABA version history is deliberately kept —
             value recurrence across a recycle is exactly the hazard. *)
          s.c_kind <- ck;
          s.c_owner <- p;
          s.last_write <- None;
          Hashtbl.reset s.plain_reads;
          s.aba_value <- init
      | None ->
          let s = new_cshadow ck p in
          s.aba_value <- init;
          Hashtbl.add st.cells (Cell.id cell) s)

let on_heap_event t ev =
  match t with
  | Disabled -> ()
  | On st -> (
      match ev with
      | Heap.Obs_alloc { p; gen; _ } -> (
          match st.heap with Some h -> bind_object st h p gen | None -> ())
      | Heap.Obs_free { p; gen; _ } -> (
          match Hashtbl.find_opt st.objs p with
          | Some os ->
              os.status <- Dead;
              os.o_gen <- gen
          | None -> Hashtbl.add st.objs p { status = Dead; o_gen = gen }))

let note_dying t p =
  match t with
  | Disabled -> ()
  | On st ->
      if p > 0 then begin
        let tid = Sched.tid () in
        match Hashtbl.find_opt st.objs p with
        | Some os -> (
            match os.status with
            (* Dying -> Dying re-marks are legitimate ownership handoffs
               (deferred-queue pump, crash adoption): the new caller becomes
               the destroyer whose teardown reads are exempt. *)
            | Live | Dying _ -> os.status <- Dying tid
            | Dead -> ())
        | None -> Hashtbl.add st.objs p { status = Dying tid; o_gen = 0 }
      end

(* --- findings --- *)

let access_now st =
  let tid = Sched.tid () in
  {
    a_tid = tid;
    a_thread = Sched.name_of tid;
    a_site = Obs.current_op st.obs;
    a_step = Sched.steps_so_far ();
  }

let slot_label cs =
  match cs.c_kind with
  | K_rc -> "rc"
  | K_ptr i -> Printf.sprintf "ptr[%d]" i
  | K_val i -> Printf.sprintf "val[%d]" i
  | K_root -> "root"

let pp_access ppf a =
  Format.fprintf ppf "%s@step %d [site %s]" a.a_thread a.a_step a.a_site

let owner_gen st cs =
  if cs.c_owner = 0 then 0
  else
    match Hashtbl.find_opt st.objs cs.c_owner with
    | Some os -> os.o_gen
    | None -> 0

(* Current heap incarnation of the object behind a pointer value. *)
let gen_of st v =
  if v <= 0 then 0
  else
    match st.heap with
    | Some h when v <= Heap.high_water_id h -> Heap.generation h v
    | _ -> 0

(* [obj] overrides the finding's subject object: ABA on a root slot has
   no owning object, but the recycled node behind the stale value is what
   the witness (and its lineage excerpt) should be about. Messages carry
   no raw cell ids — those are process-global counter values, and leaving
   them out keeps witnesses byte-stable run to run. *)
let emit st kind ?(obj = 0) ~cell_id ~cs ~access ~prev ~what () =
  (match kind with
  | Race -> st.races <- st.races + 1
  | Use_after_free -> st.uaf <- st.uaf + 1
  | Use_after_retire -> st.uar <- st.uar + 1
  | Aba -> st.aba_harmful <- st.aba_harmful + 1);
  Metrics.incr st.obs.metrics (kind_counter kind);
  Tracer.emit st.obs.tracer ~arg:cell_id Instant ("san." ^ kind_name kind);
  let slot = slot_label cs in
  let subject, subject_gen =
    if obj > 0 then (obj, gen_of st obj) else (cs.c_owner, owner_gen st cs)
  in
  let target =
    if cs.c_owner = 0 then slot
    else
      Printf.sprintf "obj#%d(gen %d).%s" cs.c_owner (owner_gen st cs) slot
  in
  let message =
    let b = Buffer.create 128 in
    let ppf = Format.formatter_of_buffer b in
    Format.fprintf ppf "%s: %s of %s by %a" (kind_name kind) what target
      pp_access access;
    (match prev with
    | Some p -> Format.fprintf ppf " conflicts with %a" pp_access p
    | None -> ());
    Format.pp_print_flush ppf ();
    Buffer.contents b
  in
  let key =
    Printf.sprintf "%s|%s|%s|%s|%s" (kind_name kind) slot access.a_site
      (match prev with Some p -> p.a_site | None -> "-")
      what
  in
  match Hashtbl.find_opt st.dedup key with
  | Some e -> e.n <- e.n + 1
  | None ->
      let base =
        {
          f_kind = kind;
          f_cell = cell_id;
          f_slot = slot;
          f_addr = subject;
          f_gen = subject_gen;
          f_access = access;
          f_prev = prev;
          f_count = 1;
          f_message = message;
        }
      in
      Hashtbl.add st.dedup key { base; n = 1 };
      st.order <- key :: st.order

(* Liveness discipline: holding a counted reference guarantees the object
   is live, so any pointer/value access to a dead object — or to a dying
   one by a thread other than its destroyer — breaks the LFRC discipline.
   Rc cells are exempt (type-stable memory; Figure 2 relies on it). *)
let check_liveness st ~cell_id cs access ~what =
  if cs.c_owner > 0 then
    match Hashtbl.find_opt st.objs cs.c_owner with
    | Some { status = Dead; _ } ->
        emit st Use_after_free ~cell_id ~cs ~access ~prev:None ~what ()
    | Some { status = Dying d; _ } when d <> access.a_tid ->
        emit st Use_after_retire ~cell_id ~cs ~access ~prev:None ~what ()
    | _ -> ()

(* --- plain-access race detection (FastTrack-style epochs) --- *)

let plain_read st ~cell_id cs access =
  let v = st.vcs.(access.a_tid) in
  (match cs.last_write with
  | Some { pa; clk } when pa.a_tid <> access.a_tid && clk > v.(pa.a_tid) ->
      emit st Race ~cell_id ~cs ~access ~prev:(Some pa) ~what:"plain read" ()
  | _ -> ());
  Hashtbl.replace cs.plain_reads access.a_tid
    { pa = access; clk = v.(access.a_tid) }

let plain_write st ~cell_id cs access =
  let v = st.vcs.(access.a_tid) in
  (match cs.last_write with
  | Some { pa; clk } when pa.a_tid <> access.a_tid && clk > v.(pa.a_tid) ->
      emit st Race ~cell_id ~cs ~access ~prev:(Some pa) ~what:"plain write" ()
  | _ -> ());
  Hashtbl.iter
    (fun u ({ pa; clk } : plain) ->
      if u <> access.a_tid && clk > v.(u) then
        emit st Race ~cell_id ~cs ~access ~prev:(Some pa) ~what:"plain write" ())
    cs.plain_reads;
  (* The write epoch dominates: earlier reads are either ordered before it
     or were just reported. *)
  Hashtbl.reset cs.plain_reads;
  cs.last_write <- Some { pa = access; clk = v.(access.a_tid) }

(* --- ABA tracking on pointer slots --- *)

let is_pointer_slot cs =
  match cs.c_kind with K_ptr _ | K_root -> true | K_rc | K_val _ -> false

let aba_note_read st cs v tid =
  if is_pointer_slot cs then
    Hashtbl.replace cs.aba_reads tid (v, cs.aba_version, gen_of st v)

let aba_update cs new_v =
  if is_pointer_slot cs && new_v <> cs.aba_value then begin
    cs.aba_value <- new_v;
    cs.aba_version <- cs.aba_version + 1
  end

let bump_site st site =
  match Hashtbl.find_opt st.aba_sites site with
  | Some r -> incr r
  | None -> Hashtbl.add st.aba_sites site (ref 1)

(* A successful CAS whose expected value was last read by this thread at an
   older slot version: the value left and came back — an ABA occurrence.
   Harmful when the object behind the value was recycled in between (its
   generation changed): the comparison then matched two different objects,
   the hazard the paper's counted references exist to prevent. *)
let aba_check st ~cell_id cs ~old_v access =
  if is_pointer_slot cs then
    match Hashtbl.find_opt cs.aba_reads access.a_tid with
    | Some (v, ver, gen) when v = old_v && ver < cs.aba_version ->
        st.aba_all <- st.aba_all + 1;
        Metrics.incr st.obs.metrics "san.aba";
        bump_site st access.a_site;
        Hashtbl.remove cs.aba_reads access.a_tid;
        if old_v > 0 && gen_of st old_v <> gen then
          emit st Aba ~obj:old_v ~cell_id ~cs ~access ~prev:None
            ~what:(Printf.sprintf "recycled-pointer CAS (old=#%d)" old_v)
            ()
        else Tracer.emit st.obs.tracer ~arg:cell_id Instant "san.aba"
    | _ -> ()

(* --- access hooks --- *)

let on_read t c v =
  match t with
  | Disabled -> ()
  | On st -> (
      st.checks <- st.checks + 1;
      let cell_id = Cell.id c in
      let cs = shadow_of st c in
      let access = access_now st in
      tick st access.a_tid;
      (match cs.c_kind with
      | K_rc -> acquire st access.a_tid cs
      | K_ptr _ | K_root ->
          check_liveness st ~cell_id cs access ~what:"atomic read";
          acquire st access.a_tid cs;
          aba_note_read st cs v access.a_tid
      | K_val _ ->
          check_liveness st ~cell_id cs access ~what:"plain read";
          plain_read st ~cell_id cs access))

let on_write t c v =
  match t with
  | Disabled -> ()
  | On st -> (
      st.checks <- st.checks + 1;
      let cell_id = Cell.id c in
      let cs = shadow_of st c in
      let access = access_now st in
      tick st access.a_tid;
      (match cs.c_kind with
      | K_rc -> release st access.a_tid cs
      | K_ptr _ | K_root ->
          check_liveness st ~cell_id cs access ~what:"atomic write";
          release st access.a_tid cs;
          aba_update cs v
      | K_val _ ->
          check_liveness st ~cell_id cs access ~what:"plain write";
          plain_write st ~cell_id cs access))

let on_rmw t c =
  match t with
  | Disabled -> ()
  | On st ->
      st.checks <- st.checks + 1;
      let cell_id = Cell.id c in
      let cs = shadow_of st c in
      let access = access_now st in
      tick st access.a_tid;
      if cs.c_kind <> K_rc then
        check_liveness st ~cell_id cs access ~what:"atomic rmw";
      acquire st access.a_tid cs;
      release st access.a_tid cs

let cas_one st ~cell_id cs ~old_v ~new_v ~ok access =
  if cs.c_kind <> K_rc then
    check_liveness st ~cell_id cs access
      ~what:(if ok then "CAS" else "failed CAS");
  (* Even a failed CAS observed the current value: acquire; only a
     successful one publishes: release. *)
  acquire st access.a_tid cs;
  if ok then begin
    aba_check st ~cell_id cs ~old_v access;
    release st access.a_tid cs;
    aba_update cs new_v
  end

let on_cas t c ~old_v ~new_v ~ok =
  match t with
  | Disabled -> ()
  | On st ->
      st.checks <- st.checks + 1;
      let cell_id = Cell.id c in
      let cs = shadow_of st c in
      let access = access_now st in
      cas_one st ~cell_id cs ~old_v ~new_v ~ok access;
      tick st access.a_tid

let on_dcas t c0 c1 ~old0 ~old1 ~new0 ~new1 ~ok =
  match t with
  | Disabled -> ()
  | On st ->
      st.checks <- st.checks + 2;
      let access = access_now st in
      let id0 = Cell.id c0 and id1 = Cell.id c1 in
      cas_one st ~cell_id:id0 (shadow_of st c0) ~old_v:old0 ~new_v:new0 ~ok
        access;
      cas_one st ~cell_id:id1 (shadow_of st c1) ~old_v:old1 ~new_v:new1 ~ok
        access;
      tick st access.a_tid

(* --- results --- *)

let findings t =
  match t with
  | Disabled -> []
  | On st ->
      List.rev_map
        (fun key ->
          let e = Hashtbl.find st.dedup key in
          { e.base with f_count = e.n })
        st.order

let totals t =
  match t with
  | Disabled ->
      { checks = 0; races = 0; uaf = 0; uar = 0; aba = 0; aba_harmful = 0 }
  | On st ->
      {
        checks = st.checks;
        races = st.races;
        uaf = st.uaf;
        uar = st.uar;
        aba = st.aba_all;
        aba_harmful = st.aba_harmful;
      }

let aba_by_site t =
  match t with
  | Disabled -> []
  | On st ->
      Hashtbl.fold (fun site r acc -> (site, !r) :: acc) st.aba_sites []
      |> List.sort (fun (sa, a) (sb, b) -> compare (b, sa) (a, sb))

let pp_finding ppf f =
  if f.f_count > 1 then
    Format.fprintf ppf "%s (x%d)" f.f_message f.f_count
  else Format.pp_print_string ppf f.f_message
