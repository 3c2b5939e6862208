(* The traced instance: [Make (O)] is [O] with every call that reaches the
   LFRC layer or the substrate timed into the calling worker's span buffer.
   It has the same signature as [O], so the structure functors take it
   unchanged, and it adds no scheduler yield point, so under the simulator
   it takes exactly the steps [O] takes (checked by identity_test.ml).

   [declare] and [get] only touch the context's own locals list and are
   left untimed: their cost stays in the structure op's self time. *)

module Make (O : Lfrc_core.Ops_intf.OPS_DCAS) : Lfrc_core.Ops_intf.OPS_DCAS =
struct
  let name = O.name

  type ctx = { inner : O.ctx; buf : Spans.buf }
  type local = O.local

  let make_ctx env = { inner = O.make_ctx env; buf = Spans.current () }
  let dispose_ctx c = O.dispose_ctx c.inner
  let env c = O.env c.inner
  let declare c = O.declare c.inner
  let get = O.get

  let timed k c f =
    let t0 = Spans.enter c.buf in
    let r = f c.inner in
    Spans.leave c.buf k t0;
    r

  let timed_ok k c f =
    let t0 = Spans.enter c.buf in
    Spans.leave_ok c.buf k t0 (f c.inner)

  let retire c l = timed Spans.k_destroy c (fun i -> O.retire i l)
  let set_null c l = timed Spans.k_destroy c (fun i -> O.set_null i l)
  let load c cell l = timed Spans.k_load c (fun i -> O.load i cell l)
  let store c cell p = timed Spans.k_store c (fun i -> O.store i cell p)

  let store_alloc c cell l =
    timed Spans.k_store c (fun i -> O.store_alloc i cell l)

  let copy c l p = timed Spans.k_copy c (fun i -> O.copy i l p)

  let cas c cell ~old_ptr ~new_ptr =
    timed_ok Spans.k_cas c (fun i -> O.cas i cell ~old_ptr ~new_ptr)

  let alloc c layout l = timed Spans.k_alloc c (fun i -> O.alloc i layout l)

  let try_alloc c layout l =
    timed Spans.k_alloc c (fun i -> O.try_alloc i layout l)

  let flush c = timed Spans.k_flush c O.flush
  let read_val c cell = timed Spans.k_val c (fun i -> O.read_val i cell)
  let write_val c cell v = timed Spans.k_val c (fun i -> O.write_val i cell v)
  let cas_val c cell a b = timed Spans.k_val c (fun i -> O.cas_val i cell a b)

  let dcas c c0 c1 ~old0 ~old1 ~new0 ~new1 =
    timed_ok Spans.k_dcas c (fun i -> O.dcas i c0 c1 ~old0 ~old1 ~new0 ~new1)

  let dcas_ptr_val c ~ptr_cell ~val_cell ~old_ptr ~new_ptr ~old_val ~new_val =
    timed_ok Spans.k_dcas c (fun i ->
        O.dcas_ptr_val i ~ptr_cell ~val_cell ~old_ptr ~new_ptr ~old_val
          ~new_val)
end
