(** Wait-free weighted count delivery (Blelloch–Wei split counts): the
    count word holds an object's total weight, copy and destroy adjust
    it with single fetch-adds, and handoffs move weight between carriers
    — heap slots and per-thread pouches — without touching the count.
    See DESIGN.md §17. *)

module Make (_ : sig
  val weight : int
end) : sig
  include Rc_mode.S with type env = Env.t

  (** {2 The weight tables}

      The calling thread's pouch maps addr -> (pooled weight [w], covered
      refs [n]), [w >= n >= 1]; slot weights are keyed by cell id. An
      absent entry carries weight 1. Each function takes this instance's
      lock and never yields. *)

  val pool_add : addr:int -> w:int -> n:int -> unit
  (** Merge [w] weight covering [n] more references into [addr]'s entry. *)

  val pool_try_share : addr:int -> bool
  (** Cover one more reference if the entry has spare weight ([w > n]). *)

  val pool_try_drop_shared : addr:int -> bool
  (** Uncover one reference if the entry covers more than one. *)

  val pool_weight : addr:int -> int

  val pool_give : addr:int -> w:int -> bool
  (** Merge [w] into an existing entry without covering a reference;
      [false] if there is none. *)

  val pool_take_for_transfer : addr:int -> int
  (** The weight a reference hands to a heap slot: the whole pool if it
      was the last covered reference (entry removed), else 1. *)

  val slot_take : cell:Lfrc_simmem.Cell.t -> int
  (** Remove and return the slot's carried weight. *)

  val slot_set : cell:Lfrc_simmem.Cell.t -> w:int -> unit
  val slot_give : cell:Lfrc_simmem.Cell.t -> w:int -> unit

  val slot_try_borrow : cell:Lfrc_simmem.Cell.t -> bool
  (** Take 1 from a slot carrying weight >= 2 — [load]'s borrow. *)
end

val create : weight:int -> Env.rc
(** A fresh instance with its own tables ([weight >= 2]). *)
