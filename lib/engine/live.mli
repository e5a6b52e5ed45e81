(** Incremental, submit-while-running scheduling core.

    Every other engine in this library consumes a complete arrival
    sequence fixed before the run starts.  A live engine instead exposes
    the paper's actual online process: jobs are {!submit}ted while the
    simulation is under way, {!advance} moves the clock up to a horizon
    (processing exactly the completions, SETF catch-ups and admissions
    falling inside it, and splitting the final inter-event interval at
    the horizon), and {!query} reads O(1)-memory live metrics at any
    instant — the Lk power sum and norm, Welford mean, running max, and
    P-squared percentile sketches ({!Rr_util.P2}) over completed flow
    times.

    The three kernels are the closed-form fast engines re-expressed as
    resumable state: the equal-share virtual-service deadline heap
    ({!Simulator.run_equal_share}) for Round Robin, the priority-index
    slot/heap kernel ({!Index_engine.run}) for SRPT / SJF / FCFS, and the
    SETF group cascade ({!Index_engine.run_setf}).  Each event costs
    O(m + log alive); live memory is O(alive + pending), independent of
    how many jobs have passed through.  On a submit-everything-upfront
    feed the event sequence matches the closed engines exactly.  The
    classified cores ({!Class_engine}, {!Hybrid_engine},
    {!Budget_engine}) advance their jobs only at events, by the whole
    interval since the last one, so horizon splits change none of their
    floats; the three kernels above accumulate a split interval's advance
    in pieces, a rounding difference bounded well inside the 1e-9
    relative flow-time tolerance pinned by the differential suite
    (test_live.ml) away from completion-threshold knife edges.

    Engine state is closure-free, so a whole engine — mid-run, with jobs
    alive and pending — serializes with {!to_bytes}/{!save} and resumes
    with {!of_bytes}/{!load}; [rr_cli serve] builds its SNAPSHOT/RESTORE
    protocol commands on these. *)

type spec =
  | Equal_share
  | Indexed of Index_engine.kind
  | Setf_cascade
  | Classified of Policy_class.t
(** Which kernel drives the engine.  [Classified] accepts {e any} policy
    class ({!Policy_class.t}) and routes it to the matching incremental
    core — the equal-share deadline heap, the priority index, the SETF
    cascade, the dense class kernels ({!Class_engine}), the starvation
    hybrid ({!Hybrid_engine}) or the preemption-budget kernel
    ({!Budget_engine}).  [Equal_share] / [Indexed] / [Setf_cascade] are
    the pre-classification spellings of the same three cores, kept for
    back-compatibility.  (Unclassified policies need the per-event
    policy loop and have no incremental form — see [Run.engine] for how
    the two surfaces meet.) *)

val spec_name : spec -> string
(** Audit name, matching [Run.engine_name]: ["equal-share"],
    ["srpt-index"], ["setf-cascade"], ["mlfq-ladder"], ["hybrid-index"],
    ... ({!Policy_class.engine_name}). *)

val spec_of_string : string -> spec option
(** Accepts every registry policy name — ["rr"], ["srpt"], ["sjf"],
    ["fcfs"], ["setf"], ["hdf"], ["laps"], ["mlfq"], ["quantum-rr"],
    ["wrr-age"], ["wrr-static"], ["hybrid"], ["srpt-mig"] — at its
    registry-default parameters (plus the {!spec_name} spellings);
    case-insensitive.  [None] for anything else.  Use the typed
    [Classified] constructor for non-default parameters. *)

val spec_names : string list
(** The canonical accepted names, for CLI help text. *)

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
    exceeded).  [sink] is called once per completion with the job's id,
    arrival and flow time, on top of the built-in metric folds.
    @raise Invalid_argument on non-positive [machines]/[speed]/[k]. *)

val set_sink : t -> Simulator.sink -> unit
(** Replace the completion sink (snapshots never capture it). *)

val submit : t -> arrival:float -> size:float -> int
(** Submit one job; returns its dense id (0, 1, 2, ... in submission
    order).  Arrivals must be non-decreasing across submissions and must
    not lie in the simulated past ([arrival >= now]); the job waits in
    the pending queue until {!advance} reaches its arrival.
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
    moves the clock exactly there (partially serving jobs mid-interval,
    the same analytic advance the closed cores apply between events).  A
    horizon at or before [now] is a no-op; [infinity] behaves like
    {!drain}.  @raise Invalid_argument on NaN. *)

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
