(** Deferred-rc count delivery: increments and decrements park as ±1
    adjustments in per-thread buffers, netted in place, and a flush
    applies each address's net delta with one CAS once [epoch]
    adjustments have been parked (or at a forced flush). Only the flush
    frees. See DESIGN.md §12. *)

module Make (_ : sig
  val epoch : int
end) : sig
  include Rc_mode.S with type env = Env.t

  (** {2 The park buffers}

      Each function takes this instance's lock and never yields. *)

  val park : addr:int -> delta:int -> int
  (** Park a ±1 adjustment for [addr] in the calling thread's buffer,
      netted in place; returns the park count since the last drain. *)

  val parked : unit -> int list
  (** Addresses with a nonzero parked net, across all threads. *)

  val try_begin_flush : unit -> bool
  (** Claim the flush flag for the calling thread; [false] if held. *)

  val end_flush : unit -> unit

  val stage : unit -> (int * int) list
  (** Move every parked delta into the flush's applying table, where it
      stays until its heap CAS lands; returns the staged nets. *)

  val recover_flush : crashed:int list -> int
  (** If the flush flag's holder is in [crashed], re-park its staged
      deltas into its own buffer and release the flag; returns how many
      were re-parked. *)
end

val create : epoch:int -> Env.rc
(** A fresh instance with its own buffers ([epoch >= 1]). *)
