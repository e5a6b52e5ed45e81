(** Grow-on-demand byte queues for the serving layer.

    A ring is a FIFO of bytes whose readable region is always {e one
    contiguous slice} of the backing buffer — [buf r] at [pos r],
    [length r] bytes — so the frame parser can decode fixed-width fields
    straight out of the buffer with no per-frame copy.  Contiguity is
    kept by shifting the live bytes back to offset 0 whenever the dead
    prefix alone would satisfy a {!reserve} (amortized O(1) per byte),
    and by doubling the buffer otherwise.

    Each connection owns one read ring (socket -> parser) and one write
    ring (replies -> socket); both survive for the connection's lifetime
    and are reused across every frame, so the steady state allocates
    nothing per event. *)

type t

val create : ?capacity:int -> unit -> t
(** Empty ring backed by [capacity] (default 4096) bytes. *)

val length : t -> int
(** Readable bytes currently queued. *)

val is_empty : t -> bool

val clear : t -> unit
(** Drop every queued byte (the backing buffer is kept). *)

val buf : t -> Bytes.t
(** The backing buffer.  Valid only until the next {!reserve}, {!alloc}
    or [add_*]; the readable slice is [pos t .. pos t + length t - 1]. *)

val pos : t -> int
(** Offset of the first readable byte in {!buf}. *)

val reserve : t -> int -> unit
(** [reserve t n] guarantees [n] bytes of tail space after the readable
    region, compacting or growing as needed. *)

val alloc : t -> int -> int
(** [alloc t n] appends [n] {e uninitialized} bytes and returns the
    offset in {!buf} where the caller must write them (the offset stays
    valid until the next reserve/alloc).  The frame writers use this to
    build replies in place. *)

val add_substring : t -> string -> int -> int -> unit
val add_string : t -> string -> unit
val add_char : t -> char -> unit
val add_subbytes : t -> Bytes.t -> int -> int -> unit

val consume : t -> int -> unit
(** Drop [n] bytes from the front.
    @raise Invalid_argument when [n] exceeds {!length}. *)

val read_from_fd :
  ?chunk:int -> t -> Unix.file_descr -> [ `Read of int | `Eof | `Again | `Closed ]
(** Read up to [chunk] (default 65536) bytes from [fd] into the tail.
    [`Again] covers [EAGAIN]/[EWOULDBLOCK]/[EINTR] on a non-blocking
    descriptor; [`Eof] is an orderly zero-byte read; [`Closed] covers
    every other [Unix_error] (e.g. [ECONNRESET] from a peer that hung up
    with replies unread) — the connection is dead. *)

val write_to_fd : t -> Unix.file_descr -> [ `Wrote of int | `Again | `Closed ]
(** Write the readable region to [fd], consuming whatever the kernel
    accepted (partial writes resume on the next call).  [`Closed] covers
    [EPIPE]/[ECONNRESET] — the peer is gone. *)
