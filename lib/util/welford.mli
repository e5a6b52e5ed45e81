(** Numerically stable running moments (Welford's online algorithm).

    Collects count, mean, variance, min and max in one pass; used for the
    flow-time summaries of {!Rr_metrics} and the live engine's per-job
    metrics.  The state is all-float, so {!add} stores every field
    unboxed and allocates nothing; the count is kept as a float, exact up
    to 2{^53} observations, and every value equals the integer-count
    formulation's bit for bit. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0. when empty. *)

val variance : t -> float
(** Population variance; 0. when fewer than two samples. *)

val stddev : t -> float

val min : t -> float
(** @raise Invalid_argument when empty. *)

val max : t -> float
(** @raise Invalid_argument when empty. *)

val of_array : float array -> t

val merge : t -> t -> t
(** Combine two accumulators as if every sample of both had been added to
    one (Chan et al.'s parallel update): counts and extrema are exact,
    mean and variance combine without loss of stability.  Neither input
    is mutated; the parallel streaming folds merge per-domain moments
    with this. *)
