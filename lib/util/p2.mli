(** Jain & Chlamtac's P² streaming quantile sketch (CACM 1985).

    Five markers track the minimum, the [p/2], [p] and [(1+p)/2]
    quantiles, and the maximum; marker heights move by piecewise-parabolic
    interpolation as observations stream past.  O(1) memory and O(1) per
    observation, no buffering.  Estimates converge to the true quantile
    for i.i.d. inputs; for the first five observations the estimate is the
    exact interpolated order statistic of the buffered sample.

    The whole state — marker heights, actual positions, and the desired
    positions and increments of the three interior markers — is one flat
    float array read at constant indices, so {!add} allocates nothing —
    the live engine runs three sketches per completion on its serving
    path, where a boxed intermediate per marker step would cost about as
    much as the scheduling kernel itself.  The marker updates are
    unrolled and their parabolic and linear steps written in line, so no
    float crosses a call boxed.  Every value that is read goes through
    the same float operations, in the same order, as the textbook loops
    over five-element arrays, so estimates are bit-identical to that
    formulation (test_util pins this against a verbatim copy of it).

    The state has no closures, so it survives [Marshal];
    {!Rr_metrics.Sink.quantile} wraps it in a closure-based sink, and
    {!Rr_engine.Live} keeps it directly in its snapshottable state, so
    sketch estimates are bit-identical across the two entry points. *)

type t

val create : p:float -> unit -> t
(** @raise Invalid_argument unless [0 < p < 1]. *)

val add : t -> float -> unit
(** Feed one observation. *)

val add_at : t -> float array -> int -> unit
(** [add_at t a i] is [add t a.(i)] (no bounds check), with the float
    read inside the call: the live engine feeds its sketches straight
    from the kernel's completion log this way, so no float is boxed to
    cross the call. *)

val count : t -> int
(** Observations fed so far. *)

val value : t -> float
(** Current estimate of the [p]-quantile; [0.] before any observation. *)
