(** Dense class kernels: specialised engines for the rate-vector policy
    classes — LAPS ({!Policy_class.Latest_fraction}), MLFQ
    ({!Policy_class.Level_ladder}), the weighted proportional shares
    ({!Policy_class.Aged_share}, {!Policy_class.Sized_share}), and
    discrete quantum round-robin ({!Policy_class.Quantum_cycle}).

    These classes give fractional rates to many jobs at once, so events
    still cost O(alive); the engines win by maintaining jobs in the
    order their class needs (no per-event sort, no view rebuild, no
    policy closure) and by computing the same floats as the mirror
    policies: the shared {!Policy_class.capped_rates_into}, and the MLFQ
    ladder tabled once by {!Policy_class.ladder_table} with exactly the
    recurrences of {!Policy_class.ladder_level} — each job's level then
    moves forward from its cached one, which lands on the level the
    reference recursion computes from 0 (pinned by test_classes).  So
    the two sides compute bit-identical floats on the same event
    sequence, and the differential suite pins agreement with the general
    loop to <= 1e-9 relative flow time.

    The closed loop allocates nothing per event: per-job floats live in
    all-float (flat) records, the clock and horizon in a flat record of
    the state, and jobs are admitted from the source's raw cursor. *)

type kind =
  | Laps of { beta : float }
  | Ladder of { base_quantum : float; factor : float; levels : int }
  | Aged of { k : int; refresh : float; offset : float }
  | Sized of { gamma : float }
  | Quantum of { quantum : float }

val kind_of_class : Policy_class.t -> kind option
(** The dense kernel serving a policy class, if any; [None] for the
    classes served by other engines (equal-share, the priority indexes,
    the SETF cascade, the hybrid and budget kernels). *)

val class_of_kind : kind -> Policy_class.t
(** Right inverse of {!kind_of_class}. *)

(** {2 Incremental primitives}

    The building blocks the {!Live} engine drives directly: one
    {!refresh} per event (never per split — cached rates are what keep
    WRR-age's drifting weights split-safe), {!advance} over the interval
    since the last event, {!settle} + admissions after each event.  The closed
    {!run} / {!run_stream} below drive the same primitives.  The state
    contains no closures, so live snapshots can [Marshal] it. *)

type state

val create : machines:int -> speed:float -> kind -> state
(** @raise Invalid_argument on non-positive machines or speed, or
    out-of-range class parameters (see {!Policy_class.validate}). *)

val alive : state -> int

val admit : state -> id:int -> arrival:float -> size:float -> unit
(** Admit a released job.  Jobs must be admitted in (arrival asc,
    id asc) order — the order every {!Simulator.Source} produces. *)

val refresh : state -> now:float -> unit
(** Recompute every cached rate and the decision horizon: the mirror of
    one [allocate] call.  Run exactly once per event, after {!settle}
    and admissions. *)

val next_internal : state -> now:float -> float
(** Earliest internal event under the cached decision (analytic
    completion or horizon); [infinity] when neither is pending.  The
    caller folds in the next arrival. *)

val advance : state -> dt:float -> unit
(** Advance served jobs by the cached rates for [dt > 0]. *)

val settle : state -> now:float -> complete:Simulator.sink -> unit
(** Retire completed jobs, reporting each as
    [complete ~id ~arrival ~flow:(now -. arrival)]. *)

(** {2 Closed runs} *)

val run :
  ?record_trace:bool ->
  ?speed:float ->
  ?max_events:int ->
  ?sink:Simulator.sink ->
  machines:int ->
  kind:kind ->
  Job.t list ->
  Simulator.result
(** Closed-form run over a finite job list; same contract as
    {!Simulator.run} (validation, completion threshold,
    completion-beats-arrival tie rule, event accounting).
    @raise Simulator.Event_limit_exceeded like the general loop. *)

val run_stream :
  ?speed:float ->
  ?max_events:int ->
  machines:int ->
  kind:kind ->
  sink:Simulator.sink ->
  (Simulator.Source.cursor -> int) ->
  Simulator.summary
(** Streaming run over an unboxed {!Simulator.Source.of_raw} producer:
    jobs are pulled on demand in non-decreasing arrival order with
    distinct ids, flows go to the sink, and only O(alive) state plus
    O(1) aggregates stay resident. *)
