(** The facade tying instances, policies and the simulator together.

    A {!config} names the full simulation context once — machine count,
    resource-augmentation speed, norm index [k], trace recording, the two
    performance switches — and every entry point takes it first, so sweeps
    build one record and vary only the field under study
    ([{ cfg with speed }]).  {!batch}, {!batch_stream} and {!fold_stream}
    evaluate many (policy, instance) pairs on a caller-owned {!Pool} —
    the one way to run a batch; a one-domain pool is the sequential
    loop.  Because simulation is deterministic given its inputs and every
    task is independent, the batch results are bit-identical to the
    sequential ones for any number of domains.

    Measurements come in two shapes:

    - {e materialized}: {!measure} takes an {!Rr_workload.Instance.t}
      (a job list in memory) and folds the flow vector the simulator
      returns;
    - {e streaming}: {!measure_stream} takes an
      {!Rr_workload.Instance.Stream.t} and pushes every completion through
      the incremental folds of [Rr_metrics.Sink] as it happens — live
      memory is O(alive jobs), so ten-million-job workloads measure in a
      constant-size heap.  The two paths agree to ~1e-9 relative (they sum
      in different orders) and never alias in the cache.

    Engine selection is one typed surface, the [engine] field:

    - [`Auto] (the default): every policy that declares a
      {!Rr_engine.Policy_class.t} runs on its class's kernel
      ({!Rr_engine.Kernel}) under the one closed driver
      {!Rr_engine.Simulator.run_class} — Round Robin on the equal-share
      deadline heap, SRPT/SJF/FCFS/HDF on the priority-index slots, SETF
      on the group cascade, LAPS / MLFQ / quantum-RR / the weighted
      shares on the dense kernels, the starvation hybrid and
      migration-limited SRPT on their slot/heap kernels — each agreeing
      with the general engine to <= 1e-9 relative flow time but several
      times faster in heavy traffic ({!selection_for} is the classifier,
      {!engine_name} the audit string).  Unclassified policies take the
      general loop.
    - [`General]: force the per-event policy loop for every policy (e.g.
      to reproduce bit-exact historical numbers).
    - [`Closed]: insist on the class kernel under the closed driver —
      the same selection [`Auto] makes for every classified policy, but
      an unclassified policy raises [Invalid_argument] instead of
      silently falling back to the general loop.
    - [`Live]: run the same kernel under the other driver, the
      incremental {!Rr_engine.Live} engine (submit-while-running; here
      fed from the materialized instance or stream), exercising the
      exact engine a long-running [rr_cli serve] daemon uses.  Like
      [`Closed], it refuses an unclassified policy.

    The remaining optimisation switch, [cache], stays a boolean:
    {!measure} and {!measure_stream} (and everything built on them —
    {!norm}, {!batch}, {!Ratio.vs_baseline}, sweeps) consult the
    process-wide {!Cache}, so re-measuring the same (policy, config,
    instance) triple costs a hash lookup.  Set [cache:false] for
    benchmarking or for custom policies whose [name] does not determine
    their behaviour. *)

type engine = [ `Auto | `General | `Closed | `Live ]
(** Engine-selection surface, one variant per {!selection} constructor
    plus [`Auto]; see the module preamble for what each variant
    selects.  Distinct engines never alias in the {!Cache} — the
    selection is part of every key via {!engine_name}. *)

type config = {
  machines : int;  (** Identical machines; default 1. *)
  speed : float;  (** Resource-augmentation speed; default 1. *)
  k : int;  (** Norm index of the lk objective; default 2. *)
  record_trace : bool;
      (** Keep the full segment trace; default false.  Ignored by
          [`Live] (the incremental core keeps no trace). *)
  engine : engine;  (** Engine selection; default [`Auto]. *)
  cache : bool;  (** Memoise {!measure} results in {!Cache}; default true. *)
}

val default : config
(** [{ machines = 1; speed = 1.; k = 2; record_trace = false;
      engine = `Auto; cache = true }]. *)

val config :
  ?machines:int ->
  ?speed:float ->
  ?k:int ->
  ?record_trace:bool ->
  ?engine:engine ->
  ?cache:bool ->
  unit ->
  config
(** {!default} with the given fields overridden. *)

val engine_of_string : string -> engine option
(** Parse a CLI spelling: ["auto"], ["general"], ["closed"], ["live"]
    (case-insensitive). *)

val engine_to_string : engine -> string

val engine_strings : string list
(** The accepted {!engine_of_string} spellings, for help text. *)

type selection =
  | General  (** The per-event policy-invoking loop of {!Rr_engine.Simulator.run}. *)
  | Closed of Rr_engine.Policy_class.t
      (** The class's kernel under the closed driver
          {!Rr_engine.Simulator.run_class}. *)
  | Live of Rr_engine.Policy_class.t
      (** The class's kernel under the incremental {!Rr_engine.Live} driver. *)

val selection_for : config -> Rr_engine.Policy.t -> selection
(** Which concrete engine {!simulate} / {!simulate_stream} will dispatch
    this (config, policy) pair to.  The classifier reads the policy's
    declared class ([Rr_engine.Policy.t.klass]) — never its name or
    structure: a policy without the declaration falls back to [General]
    even if it is a structural copy of a classified one (the declaration
    is the contract the differential suite pins).  Under [`Closed] and
    [`Live] the same classification applies, but an unclassified policy
    @raise Invalid_argument instead of silently falling back. *)

val engine_name : config -> Rr_engine.Policy.t -> string
(** {!selection_for} as the audit string recorded in cache keys and
    printed by the CLI: ["general"], ["equal-share"], ["srpt-index"],
    ["setf-cascade"], ["mlfq-ladder"], ["laps-dense"], ["hybrid-index"],
    ... ({!Rr_engine.Policy_class.engine_name}), or the same with a
    ["live-"] prefix under [`Live]. *)

val default_max_events : int
(** The event budget every engine runs under (10 million; streams scale
    it with the job count) — the livelock guard behind exit code 3. *)

val simulate : config -> Rr_engine.Policy.t -> Rr_workload.Instance.t -> Rr_engine.Simulator.result
(** Run a policy on an instance under [config].  Never cached (the cache
    stores measurements, not traces); dispatches to the engine
    {!selection_for} selects.  Under [`Live] the instance is fed to the
    incremental core job by job (submit, advance to its arrival) and the
    result carries an empty trace. *)

val simulate_stream :
  config ->
  Rr_engine.Policy.t ->
  Rr_workload.Instance.Stream.t ->
  sink:Rr_engine.Simulator.sink ->
  Rr_engine.Simulator.summary
(** Streaming counterpart of {!simulate}: starts a fresh cursor on the
    stream, pushes every completion into [sink], returns the O(1)
    {!Rr_engine.Simulator.summary}.  Never cached; [record_trace] is
    ignored (streaming runs keep no trace).  Same fast-path dispatch as
    {!simulate}. *)

val flows : config -> Rr_engine.Policy.t -> Rr_workload.Instance.t -> float array
(** Flow times by job id.  Always re-simulates (the cache stores O(1)
    aggregates, never flow vectors); the array is the caller's own. *)

val norm : config -> Rr_engine.Policy.t -> Rr_workload.Instance.t -> float
(** The lk-norm of flow time achieved by the policy ([k] from the
    config). *)

val power_sum : config -> Rr_engine.Policy.t -> Rr_workload.Instance.t -> float
(** The unrooted [sum_j F_j^k] achieved by the policy. *)

type result = {
  policy_name : string;
  instance_label : string;
  n : int;  (** Jobs completed. *)
  norm : float;  (** lk-norm at the config's [k]. *)
  power_sum : float;  (** Unrooted [sum_j F_j^k]. *)
  mean_flow : float;  (** Average flow time; [0.] when [n = 0]. *)
  max_flow : float;  (** Maximum flow time (the l-infinity norm). *)
  events : int;  (** Simulation events processed. *)
}
(** One completed measurement: O(1) aggregates only, so results from
    {!measure} and {!measure_stream} are interchangeable and cheap to keep
    in bulk.  Need the per-job flow vector?  {!flows} (materialized) or a
    custom sink via {!simulate_stream}. *)

val measure : config -> Rr_engine.Policy.t -> Rr_workload.Instance.t -> result
(** One simulate-and-measure step — what {!batch} runs per task.  Cached
    when [cfg.cache] is set; [record_trace] is ignored here (measurements
    never need the trace), so traced and untraced configs share cache
    entries. *)

val measure_stream : config -> Rr_engine.Policy.t -> Rr_workload.Instance.Stream.t -> result
(** {!measure} over a lazy stream: one O(alive)-memory pass pushing
    completions through incremental folds.  Cached when [cfg.cache] is
    set, keyed on the stream's digest with [streamed = true] (streamed
    folds sum in completion order, materialized in id order; the two agree
    to ~1e-9 relative and never share entries).  Replays the stream from
    its seed — the stream value itself is not consumed. *)

val estimated_cost_us : config -> Rr_engine.Policy.t -> jobs:int -> float
(** Order-of-magnitude cost estimate for one simulate-and-measure task,
    in microseconds — the default [?cost] model behind [`Auto] chunking
    in {!batch} and friends.  Carries one per-job coefficient per engine
    class ({!selection_for}): the class kernels are sub-microsecond per
    job, the general event loop a few microseconds; only the ratios
    matter for chunk sizing. *)

val batch :
  ?chunk:Pool.chunking ->
  Pool.t ->
  config ->
  (Rr_engine.Policy.t * Rr_workload.Instance.t) list ->
  result list
(** [batch pool cfg tasks] measures every (policy, instance) pair on the
    pool.  Results are ordered like [tasks] and bit-identical to
    [List.map (measure cfg) tasks] for any pool size and any [?chunk]
    (the shared {!Cache} is domain-safe and simulation deterministic, so
    caching does not perturb results).  [?chunk] defaults to [`Auto]
    sized by {!estimated_cost_us}, which groups short simulations into
    ~1 ms steal units — the difference between parallel slowdown and
    near-linear speedup on batches of small instances.  Policy values
    that carry per-run mutable state (e.g. {!Rr_policies.Quantum_rr})
    must be fresh per task — build them with
    {!Rr_policies.Registry.make}.
    @raise Pool.Task_error when a simulation raises. *)

val batch_stream :
  ?chunk:Pool.chunking ->
  Pool.t ->
  config ->
  (Rr_engine.Policy.t * Rr_workload.Instance.Stream.t) list ->
  result list
(** {!batch} over streamed tasks.  Streams are seed-replayable, so the
    same stream value may appear in several tasks (and on several domains)
    safely — each measurement starts its own cursor.  Each task folds its
    own sinks as it streams, so live memory stays O(alive jobs) {e per
    domain} no matter how many million-job streams the batch holds. *)

val fold_stream :
  ?chunk:Pool.chunking ->
  Pool.t ->
  config ->
  sink:(unit -> 'a Rr_metrics.Sink.t) ->
  merge:('b -> 'a -> 'b) ->
  init:'b ->
  (Rr_engine.Policy.t * Rr_workload.Instance.Stream.t) list ->
  'b
(** Parallel streaming with a custom fold: every task builds a fresh sink
    with [sink ()] {e on the domain that runs it}, streams its simulation
    through it, and hands the finished value back; [merge] folds the
    values on the calling domain in task-index order (like
    {!Pool.map_reduce}, so a non-commutative merge is well defined and
    the result is identical for any domain count).  Combine values with
    {!Rr_metrics.Sink.Merge} — e.g. sum [power_sum] sinks, or
    {!Rr_util.Welford.merge} [moments] sinks — to aggregate over a
    many-stream batch in O(alive) memory per domain.  Results are never
    cached (the cache stores {!measure} aggregates, not custom folds). *)
