(** Preemption-budget SRPT kernel ({!Policy_class.Preempt_budget}):
    SRPT, except each job may be evicted from a machine at most [budget]
    times; an incumbent at its budget is immune and runs to completion.
    [budget = 0] is non-preemptive SRPT; a large budget is plain SRPT.

    The rule is history-dependent, so the kernel replays the mirror
    policy's transition order exactly (completions free machines, the
    waiting set refills them before same-instant arrivals are
    considered, arrivals challenge the weakest evictable incumbent).
    Each event costs O(m + log alive). *)

(** {2 The kernel}

    Run by the two drivers of {!Kernel}; floats travel through the shared
    {!Clock.t}, and the state contains no closures. *)

type state

val create :
  clk:Clock.t -> scratch:Arena.t option -> machines:int -> speed:float -> budget:int -> state

val alive : state -> int

val admit : state -> int -> unit
(** Buffer job [id] released at [clk.arrival] with size [clk.size] (in
    non-decreasing arrival order, distinct ids); the next {!refresh}
    processes it after refilling from the waiting set. *)

val refresh : state -> unit
(** Mirror of one [allocate] call.  Run exactly once per event, after
    {!settle} and admissions. *)

val next_internal : state -> unit
val advance : state -> unit
val settle : state -> Clock.log -> unit
val iter_alive : state -> (int -> float -> float -> unit) -> unit
