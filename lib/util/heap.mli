(** Array-backed binary min-heaps with unboxed float keys and int
    payloads, plus zero, two or three unboxed float satellites per
    element.

    The simulation kernels of {!Rr_engine} order their jobs in these,
    usually borrowed from a per-domain {!Rr_engine.Arena}.  Every
    operation compares keys with a
    primitive float comparison and allocates nothing outside capacity
    doubling.  The min-cost-flow solver's Dijkstra keeps its own indexed
    heap inside {!Rr_flow.Mcmf}. *)

(** Specialised min-heap with unboxed float keys and int payloads.

    Every operation is allocation-free (outside capacity doubling) and
    compares keys with primitive float comparison instead of a closure —
    the event loop of {!Rr_engine.Simulator}'s equal-share engine pays one
    heap operation per event, so the constant factor matters.  Ties on the
    key pop in increasing payload order. *)
module Scalar : sig
  type t

  val create : unit -> t

  val length : t -> int

  val is_empty : t -> bool

  val clear : t -> unit
  (** Forget all elements, keeping the backing capacity. *)

  val add : t -> key:float -> int -> unit
  (** O(log n) insertion. *)

  val min_key_exn : t -> float
  (** Smallest key. @raise Invalid_argument on an empty heap. *)

  val min_val_exn : t -> int
  (** Payload of the smallest key. @raise Invalid_argument on an empty
      heap. *)

  val pop_exn : t -> int
  (** Remove the smallest key and return its payload.
      @raise Invalid_argument on an empty heap. *)
end

(** {!Scalar} with two unboxed float satellite fields per element.

    The streaming equal-share engine keeps (virtual deadline, job id,
    arrival, size) per alive job in one heap, so a completion can be
    emitted — and the cascade threshold evaluated — without any O(n)
    side table of jobs.  Read the head's satellites with
    {!Scalar2.min_aux1_exn}/{!Scalar2.min_aux2_exn} before popping. *)
module Scalar2 : sig
  type t

  val create : unit -> t

  val length : t -> int

  val is_empty : t -> bool

  val clear : t -> unit
  (** Forget all elements, keeping the backing capacity. *)

  val add : t -> key:float -> aux1:float -> aux2:float -> int -> unit
  (** O(log n) insertion of (key, payload, satellites). *)

  val min_key_exn : t -> float
  (** Smallest key. @raise Invalid_argument on an empty heap. *)

  val min_val_exn : t -> int
  (** Payload of the smallest key. @raise Invalid_argument on an empty
      heap. *)

  val min_aux1_exn : t -> float
  (** First satellite of the smallest key.
      @raise Invalid_argument on an empty heap. *)

  val min_aux2_exn : t -> float
  (** Second satellite of the smallest key.
      @raise Invalid_argument on an empty heap. *)

  val pop_exn : t -> int
  (** Remove the smallest key and return its payload (satellites are
      discarded — read them first). @raise Invalid_argument on an empty
      heap. *)

  val iter : (float -> int -> float -> float -> unit) -> t -> unit
  (** [iter f t] applies [f key value aux1 aux2] to every element in
      unspecified (heap-array) order.  The priority-index engines use it
      to enumerate waiting jobs for trace segments; do not add or pop
      during iteration. *)

  val add_all : t -> t -> unit
  (** [add_all dst src] adds every element of [src] to [dst] — exactly
      the [add]s an {!iter} over [src] would make, in the same order, but
      without a closure or a boxed float per element.  [src] is left
      unchanged; the SETF cascade merges groups small-into-large with it. *)
end

(** {!Scalar2} with a third unboxed float satellite per element.

    The generalized priority-index engine keeps (priority key, job id,
    arrival, size, remaining) per waiting job in one heap: unlike the
    original three fixed kinds, a declared key (for example HDF's negated
    density) is not itself one of the three resume fields, so all of
    arrival, size and remaining must ride along. *)
module Scalar3 : sig
  type t

  val create : unit -> t

  val length : t -> int

  val is_empty : t -> bool

  val clear : t -> unit
  (** Forget all elements, keeping the backing capacity. *)

  val add : t -> key:float -> aux1:float -> aux2:float -> aux3:float -> int -> unit
  (** O(log n) insertion of (key, payload, satellites). *)

  val min_key_exn : t -> float
  (** Smallest key. @raise Invalid_argument on an empty heap. *)

  val min_val_exn : t -> int
  (** Payload of the smallest key. @raise Invalid_argument on an empty
      heap. *)

  val min_aux1_exn : t -> float
  (** First satellite of the smallest key.
      @raise Invalid_argument on an empty heap. *)

  val min_aux2_exn : t -> float
  (** Second satellite of the smallest key.
      @raise Invalid_argument on an empty heap. *)

  val min_aux3_exn : t -> float
  (** Third satellite of the smallest key.
      @raise Invalid_argument on an empty heap. *)

  val pop_exn : t -> int
  (** Remove the smallest key and return its payload (satellites are
      discarded — read them first). @raise Invalid_argument on an empty
      heap. *)

  val iter : (float -> int -> float -> float -> float -> unit) -> t -> unit
  (** [iter f t] applies [f key value aux1 aux2 aux3] to every element in
      unspecified (heap-array) order; do not add or pop during
      iteration. *)
end
