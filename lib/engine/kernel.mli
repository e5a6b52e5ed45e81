(** One kernel per policy class, behind one interface.

    The paper's model keeps every allocation constant between events, so
    a policy class needs only three things to be simulated exactly: its
    next internal event, an advance by [dt], and a settle step.  Every
    {!Policy_class.t} has one kernel with that shape:

    - {!Policy_class.Equal_share}: the virtual-service deadline heap
      (Round Robin);
    - {!Policy_class.Static_key}: the priority-index slots of
      {!Index_engine} (SRPT / SJF / FCFS / HDF);
    - {!Policy_class.Attained_cascade}: {!Index_engine}'s SETF group
      cascade;
    - the five dense classes: {!Class_engine};
    - {!Policy_class.Starvation_hybrid}: {!Hybrid_engine};
    - {!Policy_class.Preempt_budget}: {!Budget_engine}.

    Two drivers run them all: the closed loop of {!Simulator.run_class}
    (a release-ordered array or a raw {!Simulator.Source} cursor) and the
    live {!Live} step (a pending queue plus a horizon).  Both follow the
    general loop's event semantics, advance the kernel only at events,
    and exchange every float through the kernel's {!Clock.t}:

    + at an event instant [clk.now], {!admit} the released jobs
      ([clk.arrival], [clk.size] set per job);
    + {!scan} refreshes the decision and writes the earliest internal
      event to [clk.t_next]; the driver folds in the next arrival
      (completion wins a tie) and sets [clk.dt = clk.t_next -. clk.now];
    + {!finish} advances, moves [clk.now] to [clk.t_next] and settles,
      appending each completion to the kernel's {!log} as (id, arrival,
      flow), which the driver folds before the next event.

    Each kernel module exposes the primitives one by one ([create],
    [admit], [refresh], [next_internal], [advance], [settle],
    [iter_alive]; {!Class_engine} fuses advance and settle into one
    [finish], so LAPS and MLFQ walk their served jobs once per event);
    {!scan} and {!finish} run them in the fixed event order.  Dispatch is a [match] over a closed sum, inlined into the
    drivers, so each primitive is a direct call and no float is boxed on
    the way (this build has no flambda).  The state contains no
    closures, so a live engine snapshots with [Marshal]. *)

type t

val create : scratch:Arena.t option -> machines:int -> speed:float -> Policy_class.t -> t
(** An empty kernel at time [0.].  Heaps come from [scratch] ([None]:
    fresh heaps, for states that outlive an {!Arena} borrow).
    @raise Invalid_argument on non-positive [machines] or [speed], or
    out-of-range class parameters ({!Policy_class.validate}). *)

val clock : t -> Clock.t
val alive : t -> int
(** Admitted jobs not yet completed. *)

val admit : t -> int -> unit
(** Admit job [id] released at [clock.arrival] with size [clock.size].
    Jobs must arrive in (arrival, id) order, at or before [clock.now]. *)

val scan : t -> refresh:bool -> unit
(** The event scan at [clock.now]: with [~refresh:true], first recompute
    the decision (once per event, after admissions — never at a horizon
    split); then write the earliest internal event under the decision
    (completion, catch-up or decision horizon) to [clock.t_next],
    [infinity] when none is pending. *)

val finish : t -> int
(** The event itself, once the driver has set [clock.t_next] to the
    event instant and [clock.dt] to [clock.t_next -. clock.now]: serve
    the alive jobs for [dt], move [clock.now] to [t_next], and retire the
    jobs complete there.  The {!log} then holds exactly those jobs, in
    retirement order, with [flow = clock.now -. arrival]; returns how
    many completed. *)

val log : t -> Clock.log
(** The kernel's completion log: emptied by every {!finish}, then filled
    with that event's completions. *)

val iter_alive : t -> (int -> float -> float -> unit) -> unit
(** [f id arrival rate] for every alive job (for traces; allocates). *)
