(** Per-domain scratch arenas for the simulation engines.

    Every closed run needs the same transient storage: a scalar heap or
    three for its kernel, and a trace arena.  Allocating them from cold
    on every run is invisible for one simulation but dominates the
    minor-GC pressure of a sweep that runs thousands — and on a
    multi-domain {!Rr_core} [Pool] that pressure lands on the shared
    major heap, where it serialises domains.  An
    arena keeps one reusable set of those components per domain
    (domain-local storage), handed out for the duration of one run and
    reset — not freed — afterwards, so steady-state runs borrow storage
    whose capacity already matches their high-water mark and allocate
    (almost) nothing.

    Usage shape, inside a driver:
    {[
      let scratch = Arena.borrow () in
      Fun.protect ~finally:(fun () -> Arena.release scratch) @@ fun () ->
      let heap = Arena.scalar2_of scratch in
      ...
    ]}

    [borrow] is exclusive per domain: a re-entrant simulation (a sink
    that itself simulates on the same domain) gets [None], and every
    [*_of] accessor treats [None] as "allocate fresh" — the arena is an
    allocation-rate optimisation, never a correctness dependency.

    Borrowed components must not escape the borrow: anything obtained
    from [*_of] is reset and reused by later borrowers after [release].
    Engines therefore copy out whatever survives the run (e.g.
    {!Rr_util.Vec.to_list} on the trace arena) before releasing. *)

type t

val borrow : unit -> t option
(** Exclusive use of the calling domain's arena; [None] when it is
    already lent out (re-entrant simulation). *)

val release : t option -> unit
(** Return the arena (reset all checkout cursors).  [release None] is a
    no-op, so call sites can thread the [borrow] result through
    unconditionally. *)

val scalar_of : t option -> Rr_util.Heap.Scalar.t
(** A cleared scalar heap, pooled when the arena is available and fresh
    otherwise; capacity persists across runs.  Successive calls within
    one borrow return distinct heaps. *)

val scalar2_of : t option -> Rr_util.Heap.Scalar2.t

val scalar3_of : t option -> Rr_util.Heap.Scalar3.t

val segments_of : t option -> Trace.segment Rr_util.Vec.t
(** A cleared trace arena. *)
