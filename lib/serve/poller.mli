(** Readiness notification for {!Server}: one level-triggered epoll
    set.  Linux only, like [benchmark/]: the C stub does not build
    elsewhere.

    The caller registers each descriptor's interest once and changes it
    only when the descriptor's state changes; a {!wait} then costs
    O(ready descriptors), has no FD_SETSIZE cap and allocates nothing.
    A descriptor that is still ready is reported again by the next
    wait. *)

type t

val readable : int
(** Interest / readiness bit: input is waiting, or the peer hung up. *)

val writable : int
(** Interest / readiness bit: output would not block. *)

val create : unit -> t
(** An empty interest set.  @raise Unix.Unix_error if the kernel
    refuses one. *)

val set : t -> Unix.file_descr -> old:int -> int -> unit
(** [set t fd ~old interest] moves [fd]'s registered interest from [old]
    (0: not registered) to [interest] (0: drop it).  A descriptor must
    be dropped before it is closed. *)

val wait : t -> timeout_ms:int -> int
(** Block until a registered descriptor is ready or [timeout_ms] pass
    ([-1]: no limit), and return how many are ready; read them with
    {!ready_fd} and {!ready_flags}, indices [0 .. n - 1], until the next
    wait.  A signal ends the wait early with 0, after its OCaml handler
    has run.  A hangup or an error is reported as both bits. *)

val ready_fd : t -> int -> int
(** The [i]-th ready descriptor, as its {!index}. *)

val ready_flags : t -> int -> int
(** The [i]-th ready descriptor's bits. *)

val index : Unix.file_descr -> int
(** A descriptor's number, for fd-indexed tables and for matching
    {!ready_fd}. *)

val close : t -> unit
(** Release the interest set. *)
