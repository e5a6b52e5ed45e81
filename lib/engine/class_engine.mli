(** Dense class kernels: specialised engines for the rate-vector policy
    classes — LAPS ({!Policy_class.Latest_fraction}), MLFQ
    ({!Policy_class.Level_ladder}), the weighted proportional shares
    ({!Policy_class.Aged_share}, {!Policy_class.Sized_share}), and
    discrete quantum round-robin ({!Policy_class.Quantum_cycle}).

    These classes give fractional rates to many jobs at once.  The
    engines keep jobs in the order their class needs (no per-event sort,
    no view rebuild, no policy closure), and two of them pay per event
    only for the jobs they serve: LAPS serves a suffix of its
    admission-ordered vector, and MLFQ keeps one bucket per ladder level
    and walks only the lowest levels that share the machines.  The
    proportional shares serve every alive job, so their events cost
    O(alive); quantum round-robin touches its m slots.  Every kernel
    computes the same floats as its mirror policy: the shared
    {!Policy_class.capped_rates_into}, and the MLFQ ladder tabled once by
    {!Policy_class.ladder_table} with exactly the recurrences of
    {!Policy_class.ladder_level} — each job's level then moves forward
    from its cached one, which lands on the level the reference
    recursion computes from 0 (pinned by test_classes).  So the two sides
    compute bit-identical floats on the same event sequence, and the
    differential suite pins agreement with the general loop to <= 1e-9
    relative flow time.

    A kernel of the one interface of {!Kernel}, run by its two drivers
    ({!Simulator.run_class} closed, {!Live} incremental).  Neither
    allocates per event here: per-job floats live in all-float (flat)
    records, and the clock, horizon and admitted job's floats in the
    shared {!Clock.t}. *)

(** {2 The kernel}

    One {!refresh} per event (never per horizon split — cached rates are
    what keep WRR-age's drifting weights split-safe), {!next_internal}
    for the interval to the next event, {!finish} and admissions after
    it.  Floats travel through the shared {!Clock.t}; the state contains
    no closures. *)

type state

val create : clk:Clock.t -> machines:int -> speed:float -> Policy_class.t -> state
(** @raise Invalid_argument for a class that is not one of the five
    dense ones. *)

val alive : state -> int

val admit : state -> int -> unit
(** Admit job [id] released at [clk.arrival] with size [clk.size].  Jobs
    must be admitted in (arrival asc, id asc) order — the order every
    driver produces.  The job's record is a retired one when there is
    one, so steady-state admissions allocate nothing. *)

val refresh : state -> unit
(** Recompute every cached rate and the decision horizon at [clk.now]:
    the mirror of one [allocate] call.  Run exactly once per event, after
    {!finish} and admissions. *)

val next_internal : state -> unit
(** Earliest internal event under the cached decision (analytic
    completion or [clk.horizon]) into [clk.t_next]. *)

val finish : state -> Clock.log -> unit
(** The event: advance the served jobs by the cached rates for
    [clk.dt], move [clk.now] to [clk.t_next] and retire the jobs
    complete there into the log.  LAPS and MLFQ do all three in one pass
    over their served jobs, MLFQ moving each job that crossed a
    threshold up to its new level. *)

val iter_alive : state -> (int -> float -> float -> unit) -> unit
(** [f id arrival rate] over every alive job. *)
