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

(** {2 The kernel}

    Run by the two drivers of {!Kernel}; floats travel through the shared
    {!Clock.t}, and the state contains no closures. *)

type state

val create :
  clk:Clock.t -> scratch:Arena.t option -> machines:int -> speed:float -> theta:float -> state

val alive : state -> int

val admit : state -> int -> unit
(** Admit job [id] released at [clk.arrival] with size [clk.size] (in
    non-decreasing arrival order, distinct ids).  Every newcomer starts
    fresh: theta and size are positive, so its starvation instant is
    strictly after its arrival. *)

val refresh : state -> unit
(** Mirror of one [allocate] call at [clk.now]: apply due promotions,
    restore the running set to the top-m of the two-tier order,
    recompute [clk.horizon].  Run exactly once per event, after {!settle}
    and admissions. *)

val next_internal : state -> unit
val advance : state -> unit
val settle : state -> Clock.log -> unit
val iter_alive : state -> (int -> float -> float -> unit) -> unit
