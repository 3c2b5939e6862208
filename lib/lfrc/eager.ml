(* Eager counts: every ±1 is a CAS loop on the object's count word, the
   paper's Figure 2 verbatim. No state of its own. *)

module Heap = Lfrc_simmem.Heap
module Cell = Lfrc_simmem.Cell

type env = Env.t

let null = Heap.null
let load_weight = 1
let borrow _ ~src:_ _ = false
let loaded _ ~src:_ _ = ()

(* The +1 lands at add_to_rc's winning CAS, with no yield after it, so
   the publication record is placed in the same atomic step. *)
let publish env p =
  if p <> null then begin
    ignore (Lfrc.add_to_rc env p 1);
    Env.begin_publish env p
  end

let acquire = publish
let installed env ~cell:_ ~oldv ~newv:_ ~owned:_ = Lfrc.destroy env oldv
let claim env ~cell:_ ~oldv ~newv:_ = if oldv <> null then Env.begin_destroy env oldv
let give_back = Lfrc.destroy

let release env p = Lfrc.released env p (Lfrc.add_to_rc env p (-1) = 1)

let drop env p =
  Env.begin_destroy env p;
  Lfrc.commit_drop env p

let claim_child _ ~cell:_ _ = ()

let orphan env ~cell child =
  Cell.set cell null;
  Lfrc.destroy env child

let flush _ = 0
let adopt _ ~crashed:_ = 0
let adopt_publication _ _ ~weight:_ = ()
let anchors _ = []
