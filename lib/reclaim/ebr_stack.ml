module Heap = Lfrc_simmem.Heap
module Dcas = Lfrc_atomics.Dcas

let name = "treiber-epoch"

let null = Heap.null
let node_layout = Lfrc_structures.Treiber.node_layout

type t = {
  env : Lfrc_core.Env.t;
  heap : Heap.t;
  top : Lfrc_simmem.Cell.t;
  ebr : Epoch.t;
}

type handle = { t : t; slot : Epoch.slot }

let create env =
  let heap = Lfrc_core.Env.heap env in
  let t =
    {
      env;
      heap;
      top = Heap.root heap ~name:"ebr-stack-top" ();
      ebr = Epoch.create ~metrics:(Lfrc_core.Env.metrics env)
          ~lineage:(Lfrc_core.Env.obs env).lineage heap;
    }
  in
  (* Crash recovery reaches this structure's reclamation state through the
     environment's hook registry — the fault layer never sees Epoch. *)
  Lfrc_core.Env.on_recover env (fun ~crashed -> Epoch.adopt t.ebr ~crashed);
  t

let register t = { t; slot = Epoch.register t.ebr }
let unregister h = Epoch.unregister h.t.ebr h.slot

let d t = Lfrc_core.Env.dcas t.env

let push h v =
  let t = h.t in
  (* Allocate before pinning: a simulated OOM must not leave the slot
     pinned, and the fresh node needs no epoch protection. *)
  let nd = Heap.alloc t.heap node_layout in
  Epoch.pin t.ebr h.slot;
  Dcas.write (d t) (Heap.val_cell t.heap nd 0) v;
  let rec loop () =
    let top = Dcas.read (d t) t.top in
    Dcas.write (d t) (Heap.ptr_cell t.heap nd 0) top;
    if Dcas.cas (d t) t.top top nd then () else loop ()
  in
  loop ();
  Epoch.unpin t.ebr h.slot

let try_push h v =
  match push h v with
  | () -> Ok ()
  | exception Heap.Simulated_oom -> Error `Out_of_memory

let pop h =
  let t = h.t in
  Epoch.pin t.ebr h.slot;
  let rec loop () =
    let top = Dcas.read (d t) t.top in
    if top = null then None
    else begin
      (* Pinned: the node cannot be freed while we look at it. *)
      let next = Dcas.read (d t) (Heap.ptr_cell t.heap top 0) in
      if Dcas.cas (d t) t.top top next then begin
        let v = Dcas.read (d t) (Heap.val_cell t.heap top 0) in
        Epoch.retire t.ebr h.slot top;
        Some v
      end
      else loop ()
    end
  in
  let r = loop () in
  Epoch.unpin t.ebr h.slot;
  r

let flush t = Epoch.flush t.ebr
let epoch t = t.ebr

let destroy t =
  let h = { t; slot = Epoch.register t.ebr } in
  let rec drain () = if pop h <> None then drain () in
  drain ();
  unregister h;
  Epoch.flush t.ebr;
  Heap.release_root t.heap t.top

include Lfrc_structures.Container_intf.With_env (struct
  let name = name

  type nonrec t = t
  type nonrec handle = handle

  let create = create
  let register = register
  let unregister = unregister
  let destroy = destroy
end)
