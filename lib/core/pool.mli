(** Work-stealing pool of OCaml 5 domains for embarrassingly parallel
    experiment sweeps — the library's one batch executor: {!Run.batch},
    {!Run.batch_stream} and {!Run.fold_stream} run on a caller-owned
    pool, and a one-domain pool is the sequential loop.

    A pool owns [domains - 1] long-lived worker domains; the calling domain
    participates in every batch, so [create ~domains:1] spawns nothing and
    executes inline.  Tasks of a batch are indexed [0 .. n-1]; every worker
    starts on a contiguous slice of the index range and, once its slice is
    exhausted, steals single tasks from the tail of the busiest-looking
    victim.  Scheduling is therefore non-deterministic, but the {e results}
    are not:

    - [map] returns results ordered by task index, regardless of which
      domain computed what;
    - [map_reduce] folds the mapped results in task-index order, so even a
      non-associative/non-commutative [reduce] (e.g. float addition) gives
      bit-identical output for any number of domains;
    - tasks must not share mutable state — in particular each task that
      needs randomness must own its generator, seeded from the task index
      or derived by splitting a parent {!Rr_util.Prng.t} {e before}
      submission, never drawn from a generator shared across tasks.

    Under that discipline, running on [n] domains is bit-identical to
    running sequentially.

    {2 Cost-aware chunking}

    The unit of stealing is a {e chunk} of consecutive task indices;
    every [map]-family entry point takes [?chunk] to control it.  When
    tasks are short (a 100 us simulation), claiming them one CAS at a
    time costs more than the work itself — the reason naive
    parallelisation of small batches runs {e slower} than sequential
    code.  [`Auto] (the default) sizes chunks from the optional [?cost]
    estimates (nominally microseconds per task): consecutive tasks are
    grouped until a chunk carries {!auto_chunk_target_cost} (~1 ms) of
    estimated work, or until the batch splits evenly across the
    participants, whichever gives smaller chunks.  Without [?cost],
    [`Auto] falls back to a fixed size that keeps ~16 chunks per
    participant.  [`Fixed c] forces exactly [c] tasks per chunk
    ([`Fixed 1] restores task-granular stealing — right for a handful of
    long tasks such as bracket probes).

    Chunking changes only the stealing granularity: tasks inside a chunk
    run in index order with their own exception boundaries, so results,
    per-task PRNG seeding, and the {!Task_error} index are identical for
    every [?chunk] argument and every domain count.

    A pool is single-owner: concurrent or re-entrant [map] calls on the
    same pool raise [Invalid_argument]. *)

type t

exception Task_error of int * exn
(** [Task_error (index, exn)] is raised at the submitting caller when the
    task numbered [index] raised [exn] in a worker.  The first failure
    wins; remaining unstarted tasks are abandoned. *)

type chunking = [ `Auto | `Fixed of int ]
(** How a batch is cut into steal units; see {e Cost-aware chunking}
    above. *)

val auto_chunk_target_cost : float
(** Estimated cost (same units as [?cost], nominally microseconds) that
    [`Auto] packs into one chunk: 1000. *)

val default_minor_heap_words : int
(** Minor heap size given to each worker domain unless overridden:
    [2{^22}] words (32 MB).  Sized so that a typical simulation task
    (order 1-10M minor words, per the B4 allocation audit) triggers only
    a handful of minor collections — each collection is a potential
    stop-the-world rendezvous with sibling domains, and every survivor it
    promotes lands on the {e shared} major heap where allocation
    serialises. *)

val create : ?minor_heap_words:int -> domains:int -> unit -> t
(** [create ~domains] starts a pool of [domains] total participants
    ([domains - 1] spawned worker domains plus the caller), and grows the
    {!Cache} shard array to at least [4 * domains] stripes.  Each worker
    domain sizes its own minor heap to [minor_heap_words] (default
    {!default_minor_heap_words}) via [Gc.set], which in OCaml 5 applies
    per-domain; the calling domain's GC parameters are never touched —
    they belong to the surrounding program.
    @raise Invalid_argument when [domains < 1] or [minor_heap_words <
    4096]. *)

val size : t -> int
(** Total participant count, as given to {!create}. *)

val shutdown : t -> unit
(** Graceful teardown: signals every worker domain to exit and joins it.
    Idempotent.  Any later {!map} on the pool raises [Invalid_argument]. *)

val with_pool : ?minor_heap_words:int -> domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] runs [f] on a fresh pool and shuts it down on
    both normal return and exception.  [?minor_heap_words] as in
    {!create}. *)

val minor_heap_words : t -> int
(** The per-worker minor heap size this pool was created with. *)

type gc_delta = {
  participant : int;  (** 0 = the submitting domain, 1.. = workers. *)
  minor_words : float;  (** Words allocated on this domain's minor heap. *)
  promoted_words : float;  (** Words this domain promoted to the shared major heap. *)
  minor_collections : int;
  major_collections : int;
}
(** One domain's GC activity over its share of a batch, measured with
    [Gc.quick_stat] (domain-local counters, no stop-the-world) around the
    participant's work loop. *)

val last_batch_gc_deltas : t -> gc_delta array
(** Per-participant GC deltas of the most recently completed batch, index
    = participant; [[||]] before the first batch.  High [promoted_words]
    or [minor_collections] per task is the signal that
    [?minor_heap_words] is too small for the workload. *)

val map : ?chunk:chunking -> ?cost:('a -> float) -> t -> ('a -> 'b) -> 'a list -> 'b list
(** [map pool f xs] computes [List.map f xs] with the pool's domains.
    Results are ordered by task index; on one domain this {e is}
    [List.map f xs] (same order of evaluation, same result).  [?chunk]
    (default [`Auto]) and [?cost] (estimated microseconds per task,
    consulted only by [`Auto]) tune the stealing granularity without
    affecting any result.
    @raise Task_error on the first task failure.
    @raise Invalid_argument on [`Fixed c] with [c < 1]. *)

val map_array : ?chunk:chunking -> ?cost:('a -> float) -> t -> ('a -> 'b) -> 'a array -> 'b array
(** Array counterpart of {!map}. *)

val map_reduce :
  ?chunk:chunking ->
  ?cost:('a -> float) ->
  t ->
  map:('a -> 'b) ->
  reduce:('c -> 'b -> 'c) ->
  init:'c ->
  'a list ->
  'c
(** [map_reduce pool ~map ~reduce ~init xs] maps in parallel and folds the
    results left-to-right in task-index order:
    [reduce (... (reduce init y0) ...) y_{n-1}].  The fold itself runs on
    the calling domain, so [reduce] needs no thread safety and no
    associativity. *)

val env_domains : unit -> int option
(** The domain count requested by the [RR_JOBS] environment variable:
    [Some n] for a positive integer value, [None] when unset, empty, or
    unparseable.  [RR_JOBS=0] means "all recommended cores" and resolves
    through {!recommended_domains}. *)

val recommended_domains : unit -> int
(** The runtime's recommended domain count for this machine, at least 1. *)
