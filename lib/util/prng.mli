(** Deterministic, splittable pseudo-random number generation.

    The generator is Xoshiro256++ seeded through SplitMix64, following the
    reference implementations of Blackman and Vigna.  Every experiment in the
    repository threads an explicit generator state so that runs are exactly
    reproducible from a single integer seed, independently of the OCaml
    standard-library [Random] state. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed]. *)

val split : t -> t
(** [split t] derives an independent generator stream from [t], advancing
    [t].  Streams obtained by successive splits are statistically
    independent for simulation purposes. *)

val copy : t -> t
(** [copy t] duplicates the current state (same future outputs). *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** [float t] is uniform on [\[0, 1)] with 53 bits of precision. *)

val float_range : t -> lo:float -> hi:float -> float
(** Uniform on [\[lo, hi)].  Requires [lo <= hi]. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform on [\[0, bound)].  Requires [bound > 0]. *)

val bool : t -> bool
(** Fair coin. *)

val exponential : t -> rate:float -> float
(** Exponential variate with the given [rate] (mean [1. /. rate]).
    Requires [rate > 0]. *)

val pareto : t -> alpha:float -> x_min:float -> float
(** Pareto variate with shape [alpha] and scale [x_min].
    Requires [alpha > 0] and [x_min > 0]. *)

val bounded_pareto : t -> alpha:float -> x_min:float -> x_max:float -> float
(** Bounded Pareto on [\[x_min, x_max\]] via inverse-transform sampling. *)

type bounded_pareto = { l : float; h : float; e : float }
(** A bounded Pareto's per-distribution constants: [l = x_min ** alpha],
    [h = x_max ** alpha] and [e = -1 /. alpha].  All-float, so flat. *)

val bounded_pareto_constants : alpha:float -> x_min:float -> x_max:float -> bounded_pareto
(** Compute the constants once, for a stream of draws. *)

val bounded_pareto_draw : t -> bounded_pareto -> float
(** One draw with precomputed constants: one [pow] instead of three, and
    the same float {!bounded_pareto} returns for the same generator
    state — both go through one inverse-CDF expression. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
