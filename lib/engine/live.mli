(** Incremental, submit-while-running scheduling core.

    Every other engine in this library consumes a complete arrival
    sequence fixed before the run starts.  A live engine instead exposes
    the paper's actual online process: jobs are {!submit}ted while the
    simulation is under way, {!advance} moves the clock up to a horizon
    (processing exactly the completions, SETF catch-ups and admissions
    falling inside it), and {!query} reads O(1)-memory live metrics at any
    instant — the Lk power sum and norm, Welford mean, running max, and
    P-squared percentile sketches ({!Rr_util.P2}) over completed flow
    times.

    This is the live driver of the class kernels ({!Kernel}), the same
    kernels the closed driver {!Simulator.run_class} runs: one kernel per
    {!Policy_class.t}, from Round Robin's equal-share deadline heap to
    the priority-index slots, the SETF cascade and the dense, hybrid and
    budget kernels.  Each event costs what the kernel's event costs
    (O(m + log alive) for the index-like ones); live memory is
    O(alive + peak pending), independent of how many jobs have passed
    through.  The kernel is advanced at events only, by the whole
    interval since the last one, and refreshed once per event: however
    {!advance} splits time, and however submissions interleave with it,
    a live run performs the closed driver's float operations in the
    closed driver's order and returns its flow times bit for bit
    (test_live.ml pins this for every registry class on ladder
    knife-edge instances).

    The per-job path allocates nothing: pending jobs wait in a growable
    power-of-two ring of two flat float arrays (16 slots at {!create},
    doubled as submissions need), the kernel logs each completion in
    flat arrays ({!Clock.log}), and the completion folds
    ({!Rr_util.Kahan}, {!Rr_util.Welford}, three {!Rr_util.P2} sketches)
    read the log into flat float stores.  Only a caller that attaches a
    sink pays for the boxed arrival and flow it is handed.

    Engine state is closure-free, so a whole engine — mid-run, with jobs
    alive and pending — serializes with {!to_bytes}/{!save} and resumes
    with {!of_bytes}/{!load}; [rr_cli serve] builds its SNAPSHOT/RESTORE
    protocol commands on these. *)

type spec = Classified of Policy_class.t
(** Which kernel drives the engine: the one of the given policy class.
    Unclassified policies need the per-event policy loop and have no
    incremental form — see [Run.engine] for how the two surfaces meet. *)

val spec_name : spec -> string
(** Audit name, matching [Run.engine_name]: ["equal-share"],
    ["srpt-index"], ["setf-cascade"], ["mlfq-ladder"], ["hybrid-index"],
    ... ({!Policy_class.engine_name}). *)

type t
(** A live engine.  Not domain-safe: drive each engine from one domain. *)

type stats = {
  submitted : int;  (** Jobs submitted so far. *)
  completed : int;  (** Jobs completed so far. *)
  alive : int;  (** Admitted and unfinished at [now] (excludes [pending]). *)
  pending : int;  (** Submitted with an arrival still in the future. *)
  now : float;  (** Current simulation clock. *)
  events : int;  (** Events processed so far. *)
  makespan : float;  (** Time of the latest completion; [0.] before any. *)
  max_alive : int;  (** Peak number of admitted unfinished jobs. *)
  mean_flow : float;  (** Mean completed flow time; [0.] before any. *)
  max_flow : float;  (** Max completed flow time; [0.] before any. *)
  power_sum : float;  (** Kahan-compensated [sum F_j^k] over completions. *)
  norm : float;  (** [power_sum ** (1/k)]; [0.] before any completion. *)
  p50 : float;  (** P-squared median estimate ({!Rr_util.P2}). *)
  p90 : float;  (** P-squared 0.9-quantile estimate. *)
  p99 : float;  (** P-squared 0.99-quantile estimate. *)
}

val create :
  ?machines:int ->
  ?speed:float ->
  ?k:int ->
  ?max_events:int ->
  ?sink:Simulator.sink ->
  spec ->
  t
(** [create spec] builds an idle engine at time [0.] with no jobs.
    [machines] (default 1) and [speed] (default 1.) as in
    {!Simulator.run}; [k] (default 2) selects the Lk power sum the live
    metrics accumulate; [max_events] (default unbounded) bounds total
    events as in the closed engines, for livelock parity
    (@raise Simulator.Event_limit_exceeded from {!advance}/{!drain} when
    exceeded; see {!advance} for the state it leaves).  [sink] is called
    once per completion with the job's id, arrival and flow time, on top
    of the built-in metric folds, right after the event that completed
    the job has been settled (the default is never called).
    @raise Invalid_argument on non-positive [machines]/[speed]/[k]. *)

val set_sink : t -> Simulator.sink -> unit
(** Replace the completion sink (snapshots never capture it). *)

val submit : t -> arrival:float -> size:float -> int
(** Submit one job; returns its dense id (0, 1, 2, ... in submission
    order).  Arrivals must be non-decreasing across submissions and must
    not lie in the simulated past ([arrival >= now]); the job waits in
    the pending ring until {!advance} reaches its arrival.
    @raise Invalid_argument on a non-finite or decreasing arrival, an
    arrival before [now], or a non-positive size. *)

val submit_batch :
  t -> arrivals:float array -> sizes:float array -> ?off:int -> ?len:int -> unit -> int
(** [submit_batch t ~arrivals ~sizes ()] submits the [len] jobs (default:
    all of [arrivals] from [off], default 0) in order, exactly as [len]
    calls to {!submit} would — bit-identical engine state and metrics —
    with the validation hoisted into one pass over the slice.  Returns
    the first id; the batch receives ids [first .. first + len - 1]
    ([len = 0] returns the next id with no effect).  Atomic: the whole
    slice is validated {e before} anything is queued, so a rejected batch
    leaves the engine untouched — which is what lets the serving layer
    ([rr_cli serve]'s BATCH frame) answer ERR and carry on.
    @raise Invalid_argument on a bad slice or any job {!submit} would
    reject, with nothing submitted. *)

val advance : t -> float -> unit
(** [advance t horizon] processes every event at or before [horizon] and
    moves the clock exactly there.  Jobs are served analytically between
    events, so a horizon inside an inter-event interval changes nothing
    but the clock.  A horizon at or before [now] is a no-op; [infinity]
    behaves like {!drain}.  @raise Invalid_argument on NaN;
    @raise Simulator.Invalid_allocation when alive jobs can never finish
    (the closed driver's check; no registry class trips it).

    An event past the [max_events] budget is refused before it is
    counted: {!advance} and {!drain} raise
    [Simulator.Event_limit_exceeded { limit; now }] and the engine stays
    at its last event within the budget.  [events] reads [limit], and
    [now] is that event's instant (or a later horizon that needed no
    event); every other statistic is what that event left.  Each later
    {!advance} or {!drain} that needs an event raises the same way and
    changes nothing, while {!submit}, {!submit_batch}, {!query} and
    {!to_bytes} keep working. *)

val drain : t -> unit
(** Run until no job is alive or pending.  The clock ends at the last
    completion (not at infinity), so more jobs can be submitted and the
    engine advanced again afterwards. *)

val query : t -> stats
(** Read the live metrics; O(1), callable at any instant. *)

val now : t -> float
val spec : t -> spec
val machines : t -> int
val speed : t -> float
val k : t -> int

(** {2 Snapshot / restore}

    The serialized form includes the clock, every alive and pending job,
    and all metric accumulators — everything except the sink closure —
    so a restored engine continues exactly where the snapshot was taken.
    Snapshots are Marshal-based: same-build process pairs only (the
    [rr_cli serve] daemon's SNAPSHOT/RESTORE use case), not an archival
    format. *)

val to_bytes : t -> bytes

val of_bytes : ?sink:Simulator.sink -> bytes -> t
(** @raise Failure when the bytes are not a live-engine snapshot. *)

val save : t -> string -> unit
(** Write {!to_bytes} to a file. *)

val load : ?sink:Simulator.sink -> string -> t
(** Read an engine back from {!save}.
    @raise Failure when the file is not a live-engine snapshot;
    @raise Sys_error on unreadable paths. *)
