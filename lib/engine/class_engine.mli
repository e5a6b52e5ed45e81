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

    A kernel of the one interface of {!Kernel}, run by its two drivers
    ({!Simulator.run_class} closed, {!Live} incremental).  Neither
    allocates per event here: per-job floats live in all-float (flat)
    records, and the clock, horizon and admitted job's floats in the
    shared {!Clock.t}. *)

(** {2 The kernel}

    One {!refresh} per event (never per horizon split — cached rates are
    what keep WRR-age's drifting weights split-safe), {!next_internal}
    and {!advance} over the interval to the next event, {!settle} and
    admissions after it.  Floats travel through the shared {!Clock.t};
    the state contains no closures. *)

type state

val create : clk:Clock.t -> machines:int -> speed:float -> Policy_class.t -> state
(** @raise Invalid_argument for a class that is not one of the five
    dense ones. *)

val alive : state -> int

val admit : state -> int -> unit
(** Admit job [id] released at [clk.arrival] with size [clk.size].  Jobs
    must be admitted in (arrival asc, id asc) order — the order every
    driver produces. *)

val refresh : state -> unit
(** Recompute every cached rate and the decision horizon at [clk.now]:
    the mirror of one [allocate] call.  Run exactly once per event, after
    {!settle} and admissions. *)

val next_internal : state -> unit
(** Earliest internal event under the cached decision (analytic
    completion or [clk.horizon]) into [clk.t_next]. *)

val advance : state -> unit
(** Advance served jobs by the cached rates for [clk.dt]. *)

val settle : state -> Clock.sink -> unit
(** Retire completed jobs at [clk.now]. *)

val iter_alive : state -> (int -> float -> float -> unit) -> unit
(** [f id arrival rate] over every alive job. *)
