(** Starvation-hybrid kernel ({!Policy_class.Starvation_hybrid}): SRPT
    for fresh jobs, absolute FCFS priority for jobs whose flow/size
    ratio has crossed theta.

    Starvation instants ([arrival + theta * size],
    {!Policy_class.starve_time}) are fixed at admission, so between
    promotions the priority order is static and the kernel runs like a
    priority index: <= m running slots, heaps for the waiting tiers, and
    a promotion heap that supplies the same re-evaluation instants the
    mirror policy's horizon does — the event sequences, and hence the
    floats, coincide exactly.  Each event costs O(m + log alive). *)

(** {2 Incremental primitives} (driven by the {!Live} engine; the state
    contains no closures, so snapshots can [Marshal] it) *)

type state

val create : machines:int -> speed:float -> theta:float -> state
(** @raise Invalid_argument on non-positive machines or speed, or a
    non-finite / non-positive theta. *)

val alive : state -> int

val admit : state -> id:int -> arrival:float -> size:float -> unit
(** Admit a released job (in non-decreasing arrival order, distinct
    ids).  Every newcomer starts fresh: theta and size are positive, so
    its starvation instant is strictly after its arrival. *)

val refresh : state -> now:float -> unit
(** Mirror of one [allocate] call: apply due promotions, restore the
    running set to the top-m of the two-tier order, recompute the
    horizon.  Run exactly once per event, after {!settle} and
    admissions. *)

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
  theta:float ->
  Job.t list ->
  Simulator.result
(** Same contract as {!Simulator.run}. *)

val run_stream :
  ?speed:float ->
  ?max_events:int ->
  machines:int ->
  theta:float ->
  sink:Simulator.sink ->
  (Simulator.Source.cursor -> int) ->
  Simulator.summary
(** Streaming run over an unboxed {!Simulator.Source.of_raw} producer:
    no [Job.t] is built, and the loop allocates nothing per event
    beyond the job store's own bookkeeping. *)
