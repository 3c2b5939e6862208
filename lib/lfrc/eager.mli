(** Eager count delivery, the paper's Figure 2: every count adjustment
    is a CAS loop on the object's count word ({!Lfrc.add_to_rc}) and a
    count reaching zero frees at once. Stateless. *)

include Rc_mode.S with type env = Env.t
