(** Closed-form engines for the comparator policies the paper measures RR
    against (Section 1.3): SRPT, SJF, FCFS, and SETF.

    The general engine of {!Simulator} invokes its policy at every event
    and pays an O(alive log alive) re-sort each time.  For the
    fixed-priority comparators the served set is simply the m alive jobs
    smallest under a static-while-waiting key — remaining work (SRPT),
    size (SJF) or arrival (FCFS) — so this kernel keeps the <= m running
    jobs in a flat slot array and the rest in a binary heap ordered by
    (key, id): one event costs O(m + log alive) and no policy code runs
    at all.  SETF gets the cascade treatment instead: alive jobs
    partition into equal-attained groups kept as a level-sorted linked
    list whose advancing prefix (<= m+1 groups under water-filling) is
    the only part any event touches — the least-attained-service sibling
    of {!Simulator.run_equal_share}'s virtual-time cascade.

    Agreement: each engine replays the general loop's event semantics —
    the shared {!Simulator.completion_threshold}, completion-beats-arrival
    tie rule, and (key, id) priority order — and the fixed-priority
    engines use operation-for-operation identical arithmetic at rate 1,
    so flow times agree with [Simulator.run ~policy:...] to <= 1e-9
    relative (differential-tested across m in {1, 2, 8}); SETF's lazily
    materialized levels accumulate rounding in a different association
    order, within the same bound.

    Like the engines in {!Simulator}, each engine has a materialized
    entry point (job list in, {!Simulator.result} out, optional [?sink])
    and a streaming one (raw cursor in, mandatory [~sink], O(alive)
    live memory, {!Simulator.summary} out).  Neither loop builds anything
    per event: slot and group floats live in all-float (flat) records,
    the clock in a flat record, and jobs are admitted from the source's
    raw cursor. *)

type kind = Srpt | Sjf | Fcfs | Hdf of { alpha : float }
(** The static-while-waiting keys the kernel can rank by; one-to-one
    with {!Policy_class.key} (see {!key_spec} / {!kind_of_key}).  [Hdf]
    is highest density first with weight size^alpha: key
    [-(size^alpha / size)], so the densest job is the smallest key. *)

val kind_name : kind -> string
(** ["srpt"], ["sjf"], ["fcfs"], ["hdf"] — the {!Rr_policies} registry
    base names. *)

val key_spec : kind -> Policy_class.key
val kind_of_key : Policy_class.key -> kind
(** The bijection with the classification layer's {!Policy_class.key}:
    [Run] classifies a policy by its declared class and maps
    [Static_key k] to [kind_of_key k]. *)

val job_key : kind -> arrival:float -> size:float -> remaining:float -> float
(** The priority key of a job, evaluated through
    {!Policy_class.static_key} — the one expression the mirror policies
    also use, so both paths rank by bit-identical floats. *)

val key_of_view : kind -> Policy.view -> float
(** The priority key this kind schedules by — exactly the key the
    corresponding general-loop policy passes to its top-m sort, so the
    fast and general paths are provably ranking by the same number.
    SRPT, SJF and HDF keys require a clairvoyant view
    (@raise Invalid_argument otherwise, via {!Policy.remaining_exn} /
    {!Policy.size_exn}). *)

val same_attained : float -> float -> bool
(** SETF's sharing tolerance: attained-service levels within
    [1e-9 * (1 + max)] relative distance count as one equal-share group.
    The same predicate (re-exported as [Rr_policies.Setf.same_group])
    drives the general policy's grouping, so both paths agree on when a
    catch-up merges groups. *)

val run :
  ?record_trace:bool ->
  ?speed:float ->
  ?max_events:int ->
  ?sink:Simulator.sink ->
  machines:int ->
  kind:kind ->
  Job.t list ->
  Simulator.result
(** [run ~machines ~kind jobs] simulates the [kind] policy on [jobs] with
    the priority-index kernel.  Parameters, trace availability and errors
    as in {!Simulator.run}. *)

val run_stream :
  ?speed:float ->
  ?max_events:int ->
  machines:int ->
  kind:kind ->
  sink:Simulator.sink ->
  (Simulator.Source.cursor -> int) ->
  Simulator.summary
(** Streaming counterpart of {!run} over an unboxed
    {!Simulator.Source.of_raw} producer: the slot array plus the waiting
    heap (with each job's arrival and resume state as satellites) is the
    entire live state, and no [Job.t] is ever built. *)

val run_setf :
  ?record_trace:bool ->
  ?speed:float ->
  ?max_events:int ->
  ?sink:Simulator.sink ->
  machines:int ->
  Job.t list ->
  Simulator.result
(** [run_setf ~machines jobs] simulates Shortest Elapsed Time First with
    the group cascade.  Parameters and errors as in {!Simulator.run}. *)

val run_setf_stream :
  ?speed:float ->
  ?max_events:int ->
  machines:int ->
  sink:Simulator.sink ->
  (Simulator.Source.cursor -> int) ->
  Simulator.summary
(** Streaming counterpart of {!run_setf} over an unboxed
    {!Simulator.Source.of_raw} producer: live memory is the group list
    and member heaps, O(alive jobs). *)
