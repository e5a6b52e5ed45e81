(** Preemption-budget SRPT kernel ({!Policy_class.Preempt_budget}):
    SRPT, except each job may be evicted from a machine at most [budget]
    times; an incumbent at its budget is immune and runs to completion.
    [budget = 0] is non-preemptive SRPT; a large budget is plain SRPT.

    The rule is history-dependent, so the kernel replays the mirror
    policy's transition order exactly (completions free machines, the
    waiting set refills them before same-instant arrivals are
    considered, arrivals challenge the weakest evictable incumbent).
    Each event costs O(m + log alive). *)

(** {2 Incremental primitives} (driven by the {!Live} engine; the state
    contains no closures, so snapshots can [Marshal] it) *)

type state

val create : machines:int -> speed:float -> budget:int -> state
(** @raise Invalid_argument on non-positive machines or speed, or a
    negative budget. *)

val alive : state -> int

val admit : state -> id:int -> arrival:float -> size:float -> unit
(** Buffer a released job (in non-decreasing arrival order, distinct
    ids); the next {!refresh} processes it after refilling from the
    waiting set. *)

val refresh : state -> now:float -> unit
(** Mirror of one [allocate] call.  Run exactly once per event, after
    {!settle} and admissions. *)

val next_internal : state -> now:float -> float
val advance : state -> dt:float -> unit
val settle : state -> now:float -> complete:Simulator.sink -> unit
(** Retire completed running jobs, reporting each as
    [complete ~id ~arrival ~flow:(now -. arrival)]. *)

(** {2 Closed runs} *)

val run :
  ?record_trace:bool ->
  ?speed:float ->
  ?max_events:int ->
  ?sink:Simulator.sink ->
  machines:int ->
  budget:int ->
  Job.t list ->
  Simulator.result
(** Same contract as {!Simulator.run}. *)

val run_stream :
  ?speed:float ->
  ?max_events:int ->
  machines:int ->
  budget:int ->
  sink:Simulator.sink ->
  (Simulator.Source.cursor -> int) ->
  Simulator.summary
(** Streaming run over an unboxed {!Simulator.Source.of_raw} producer:
    no [Job.t] is built, and slot floats live in flat records. *)
