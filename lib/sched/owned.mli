(** Owner-local state: one record per identity ({!Sched.self} for
    per-thread state, {!Sched.domain_id} for per-domain state), found by
    an array lookup that takes no lock and does not allocate.

    Only the owner may write its record, and it needs no lock to do so.
    Anyone else reads the records only at quiescence (after the owners
    have been joined) or under the simulator, where threads interleave
    only at yield points. *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** An empty table; [make] builds a record on its identity's first
    {!get}. *)

val get : 'a t -> int -> 'a
(** The record of identity [id] ([>= 0]), created on first use. Call it
    with the caller's own identity. *)

val find : 'a t -> int -> 'a option
(** The record of [id], if one was ever created. *)

val fold : ('acc -> 'a -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over every record in ascending identity order. *)
