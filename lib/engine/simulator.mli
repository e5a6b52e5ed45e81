(** Exact event-driven simulation of rate-based schedules.

    The simulator advances continuous time from event to event: job
    arrivals, job completions, and policy-requested horizons.  Because all
    supported policies keep their allocation constant between events, the
    evolution of every job's remaining work is linear within a segment and
    the clock can be advanced analytically — completion times are exact up
    to floating-point rounding, with no time-step discretisation error.

    Two drivers here share the event semantics:

    - {!run} is the general engine — and the oracle every kernel is
      differentially pinned to: it invokes the policy at every event.
      Its loop is allocation-free in steady state — per-job views, the
      view array handed to the policy, and the trace arena are persistent
      buffers reused across events.
    - {!run_class} is the one closed driver of the class kernels
      ({!Kernel}): a policy that declares its {!Policy_class.t} runs on
      that class's kernel with no policy invocation at all — the
      equal-share deadline heap for the paper's Round Robin, the
      priority-index slots, the SETF cascade, the dense, hybrid and
      budget kernels.  Each agrees with [run] on the mirror policy up to
      floating-point rounding (within the completion-threshold semantics
      both share).  The other driver of the same kernels is the live
      {!Live} step.

    Both consume arrivals through the peekable {!Source} interface and
    report completions through a {!sink} (the closed driver also folds
    them directly, {!run_class_fold}), in two shapes of entry point:

    - the {e materialized} entry points ({!run}, {!run_class}) take a job
      list, return the full {!result} with per-job completion times,
      and additionally feed an optional [?sink];
    - the {e streaming} entry points ({!run_stream}, {!run_class_stream})
      take a pull function, feed every completion to a mandatory
      [~sink], and return only a {!summary} — live memory is O(alive
      jobs), independent of how many jobs the source produces, so
      million- to ten-million-job instances run in a constant-size heap.

    Speed augmentation: a policy rate [m_j(t) in \[0,1\]] results in
    processing at rate [speed * m_j(t)], matching the [s]-speed analysis of
    the paper (RR is given [eta = 2k(1 + 10 eps)] speed in Theorem 1). *)

exception Invalid_allocation of string
(** Raised when a policy emits rates outside [\[0, 1\]], rates summing to
    more than the machine count, a horizon not in the future, or an
    allocation under which alive jobs can never make progress again — all
    genuine policy bugs. *)

exception Event_limit_exceeded of { limit : int; now : float }
(** Raised when a simulation exhausts its [max_events] budget at simulated
    time [now].  Distinct from {!Invalid_allocation}: the schedule was
    legal, the budget was just too small for the instance (or a policy
    emits pathologically short horizons). *)

type sink = Clock.sink
(** [id:int -> arrival:float -> flow:float -> unit], a completion
    consumer: called once per job, at the simulated moment the
    job completes (so in non-decreasing completion-time order), with the
    job's id, release time, and flow time.  The flow vector of the
    materialized API is just one possible sink; the incremental folds of
    [Rr_metrics.Sink] are others. *)

(** Peekable arrival streams — the one interface both drivers pull jobs
    through.  {!Source.of_array} adapts the sorted-array path of the
    materialized entry points; lazy generators ([Rr_workload]
    [Instance.Stream]) provide the same pull function without ever
    materializing a job list.  Jobs must be produced in non-decreasing
    arrival order (checked; [Invalid_argument] otherwise) with distinct
    ids (trusted). *)
module Source : sig
  type t

  type cursor = { mutable arrival : float; mutable size : float }
  (** Unboxed one-job handoff slot for {!of_raw} producers.  All-float,
      so its representation is flat and writing the fields never
      allocates. *)

  val of_fn : (unit -> Job.t option) -> t
  (** Wrap a pull function; [None] means the stream is exhausted (and is
      then never pulled again). *)

  val of_raw : (cursor -> int) -> t
  (** Wrap an unboxed pull function: [fill cur] writes the next job's
      arrival and size into [cur] and returns its id, or returns [-1]
      (leaving [cur] alone) when the stream is exhausted — after which it
      is never called again.  The producer never builds a [Job.t], so a
      streaming run over a raw source allocates nothing per job.  The
      same validity and monotonicity checks as {!of_fn} apply. *)

  val of_array : Job.t array -> t
  (** Stream an array in index order (the caller sorts by release). *)

  val peek : t -> Job.t option
  (** Next job without consuming it. *)

  val next : t -> Job.t option
  (** Consume and return the next job. *)

  val next_arrival : t -> float
  (** Arrival time of {!peek}'s job; [infinity] when exhausted. *)

  val has_more : t -> bool

  (** {3 Raw view}

      The buffered job without a [Job.t]: after {!has_more} returned
      [true] (or {!next_arrival} returned a finite time), [head_id],
      [head_arrival] and [head_size] read the job {!peek} would return,
      and [advance] consumes it.  Once inlined these are plain field
      accesses, which is how the closed driver admits jobs without
      allocating — combined with {!of_raw}, nothing is built per job. *)

  val head_id : t -> int
  val head_arrival : t -> float
  val head_size : t -> float
  val advance : t -> unit
end

type result = {
  jobs : Job.t array;  (** All jobs, indexed by job id. *)
  completions : float array;  (** Completion time [C_j], indexed by job id. *)
  trace : Trace.t;  (** Piecewise-constant trace; [\[\]] unless recorded. *)
  machines : int;
  speed : float;
  events : int;  (** Number of simulation events processed. *)
}

type summary = {
  n : int;  (** Jobs completed. *)
  events : int;  (** Simulation events processed. *)
  machines : int;
  speed : float;
  makespan : float;  (** Last completion time; [0.] when no job completed. *)
  max_alive : int;  (** Peak number of simultaneously alive jobs. *)
}
(** What a streaming run returns: everything per-job went through the sink,
    so only O(1) aggregates remain.  [max_alive] documents the live-memory
    high-water mark — streaming runs allocate O(max_alive), not O(n). *)

val run :
  ?record_trace:bool ->
  ?speed:float ->
  ?max_events:int ->
  ?sink:sink ->
  machines:int ->
  policy:Policy.t ->
  Job.t list ->
  result
(** [run ~machines ~policy jobs] simulates [policy] on [jobs] until every
    job completes.

    @param record_trace keep the full segment trace (default [false]; the
      dual-fitting verifier and fairness time series need it).
    @param speed resource augmentation factor, default [1.].
    @param max_events safety bound on the number of events (default
      [10_000_000]); exceeding it raises {!Event_limit_exceeded}.
    @param sink additionally receives every completion as it happens
      (default: none).
    @raise Invalid_argument when job ids are not exactly [0 .. n-1], when
      [machines < 1], or when [speed] is not finite and positive. *)

val run_stream :
  ?speed:float ->
  ?max_events:int ->
  machines:int ->
  policy:Policy.t ->
  sink:sink ->
  (unit -> Job.t option) ->
  summary
(** [run_stream ~machines ~policy ~sink pull] simulates [policy] on the
    jobs produced by [pull], feeding each completion to [sink]; live
    memory is O(alive), independent of the total job count.  [pull] must
    produce jobs in non-decreasing arrival order with distinct ids.
    Parameters and errors as in {!run} (no trace in streaming mode). *)

val run_class :
  ?record_trace:bool ->
  ?speed:float ->
  ?max_events:int ->
  ?sink:sink ->
  machines:int ->
  Policy_class.t ->
  Job.t list ->
  result
(** [run_class ~machines klass jobs] runs [klass]'s kernel on [jobs]
    until every job completes: the general loop's event semantics
    (completion threshold, completion-beats-arrival tie rule, event
    accounting) at O(m + log alive) per event for the index-like
    kernels and O(alive) for the dense ones.  Traces carry the same
    segments as {!run}'s (entry order within a segment may differ).
    Parameters and errors as in {!run}; also
    @raise Invalid_argument on out-of-range class parameters. *)

val run_class_stream :
  ?speed:float ->
  ?max_events:int ->
  machines:int ->
  sink:sink ->
  Policy_class.t ->
  (Source.cursor -> int) ->
  summary
(** Streaming counterpart of {!run_class} over an unboxed
    {!Source.of_raw} producer: the source hands over (id, arrival, size)
    through a flat cursor instead of a [Job.t option], and the kernel
    state is the {e entire} live state, so a 10M-job instance runs in
    O(max alive) heap.  Combined with the per-domain scratch {!Arena}
    the equal-share kernel runs at ~0 words allocated per job in steady
    state (the B4 benchmark gate). *)

(** {2 Flow folds}

    The closed driver can fold each completion's flow straight out of
    the kernel's completion log ({!Clock.log}) into caller-owned
    accumulators, with no closure call and no boxed float per job. *)

type folds = { k : int; power_sum : Rr_util.Kahan.t; moments : Rr_util.Welford.t }
(** A Kahan-compensated power sum of [flow^k] ({!Rr_util.Floatx.powi})
    and Welford moments, updated in completion order: the same
    per-element updates as [Rr_metrics.Sink.power_sum] and
    [Sink.moments], so the floats equal theirs on the same flows. *)

val folds : k:int -> folds
(** Empty folds.  @raise Invalid_argument when [k < 1]. *)

val fold_sink : folds -> sink
(** The same folds behind a {!sink}, for the drivers that report
    completions through one (the general loop, the live feed). *)

val run_class_fold :
  ?speed:float ->
  ?max_events:int ->
  machines:int ->
  folds ->
  Policy_class.t ->
  (Source.cursor -> int) ->
  summary
(** {!run_class_stream} folding every completion into [folds] instead of
    calling a sink: [Run.measure_stream]'s closed path.
    @raise Invalid_argument on a negative flow (as the sink folds). *)

val run_equal_share_stream_raw :
  ?speed:float ->
  ?max_events:int ->
  machines:int ->
  sink:sink ->
  (Source.cursor -> int) ->
  summary
(** [run_class_stream Policy_class.Equal_share]: Round Robin's streamed
    run. *)

val flows : result -> float array
(** Flow times [F_j = C_j - r_j], indexed by job id. *)

val total_flow : result -> float
(** Compensated sum of all flow times (the l1 objective, unrooted). *)
