module Heap = Lfrc_simmem.Heap
module Dcas = Lfrc_atomics.Dcas

let name = "treiber-hazard"

let null = Heap.null
let node_layout = Lfrc_structures.Treiber.node_layout

type t = {
  env : Lfrc_core.Env.t;
  heap : Heap.t;
  top : Lfrc_simmem.Cell.t;
  hp : Hazard.t;
}

type handle = { t : t; slot : Hazard.slot }

let create env =
  let heap = Lfrc_core.Env.heap env in
  let t =
    {
      env;
      heap;
      top = Heap.root heap ~name:"hp-stack-top" ();
      hp = Hazard.create ~metrics:(Lfrc_core.Env.metrics env)
          ~lineage:(Lfrc_core.Env.obs env).lineage heap;
    }
  in
  (* Crash recovery reaches this structure's reclamation state through the
     environment's hook registry — the fault layer never sees Hazard. *)
  Lfrc_core.Env.on_recover env (fun ~crashed -> Hazard.adopt t.hp ~crashed);
  t

let register t = { t; slot = Hazard.register t.hp }
let unregister h = Hazard.unregister h.t.hp h.slot

let d t = Lfrc_core.Env.dcas t.env

let push h v =
  let t = h.t in
  let nd = Heap.alloc t.heap node_layout in
  Dcas.write (d t) (Heap.val_cell t.heap nd 0) v;
  let rec loop () =
    let top = Dcas.read (d t) t.top in
    Dcas.write (d t) (Heap.ptr_cell t.heap nd 0) top;
    if Dcas.cas (d t) t.top top nd then () else loop ()
  in
  loop ()

(* The allocation is push's first action, so a simulated OOM backs out
   before the stack is touched. *)
let try_push h v =
  match push h v with
  | () -> Ok ()
  | exception Heap.Simulated_oom -> Error `Out_of_memory

let pop h =
  let t = h.t in
  let rec loop () =
    let top = Hazard.protect t.hp h.slot ~idx:0 t.top in
    if top = null then None
    else begin
      let next = Dcas.read (d t) (Heap.ptr_cell t.heap top 0) in
      if Dcas.cas (d t) t.top top next then begin
        let v = Dcas.read (d t) (Heap.val_cell t.heap top 0) in
        Hazard.clear t.hp h.slot;
        Hazard.retire t.hp h.slot top;
        Some v
      end
      else loop ()
    end
  in
  let r = loop () in
  Hazard.clear t.hp h.slot;
  r

let destroy t =
  let h = { t; slot = Hazard.register t.hp } in
  let rec drain () = if pop h <> None then drain () in
  drain ();
  unregister h;
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
