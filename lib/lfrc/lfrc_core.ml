(* The library's interface. Every module is re-exported as is, except
   [Env], which gains [create]: it picks the count-delivery module for the
   environment's [rc_mode], and the mode modules are built on [Env] and
   [Lfrc], so the constructor can only be assembled here. *)

module Ops_intf = Ops_intf
module Rc_mode = Rc_mode
module Lfrc = Lfrc
module Eager = Eager
module Deferred = Deferred
module Wait_free = Wait_free
module Lfrc_ops = Lfrc_ops
module Gc_ops = Gc_ops
module Ll_sc = Ll_sc

module Env = struct
  include Env

  (* See [Env.create_with] for the arguments and their defaults. *)
  let create =
    create_with (function
      | Eager -> (module Eager : Rc_mode.S with type env = t)
      | Deferred_rc { epoch } -> Deferred.create ~epoch
      | Wait_free { weight } -> Wait_free.create ~weight)
end
