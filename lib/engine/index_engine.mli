(** Priority-index kernels for the comparator policies the paper
    measures RR against (Section 1.3): SRPT, SJF, FCFS, HDF, and SETF.

    The general engine of {!Simulator} invokes its policy at every event
    and pays an O(alive log alive) re-sort each time.  For the
    fixed-priority comparators the served set is simply the m alive jobs
    smallest under a static-while-waiting key — remaining work (SRPT),
    size (SJF), arrival (FCFS) or negated density (HDF) — so this kernel
    keeps the <= m running jobs in a flat slot array and the rest in a
    binary heap ordered by (key, id): one event costs O(m + log alive)
    and no policy code runs at all.  SETF gets the cascade treatment
    instead: alive jobs partition into equal-attained groups kept as a
    level-sorted linked list whose advancing prefix (<= m+1 groups under
    water-filling) is the only part any event touches — the
    least-attained-service sibling of the equal-share kernel's
    virtual-time cascade.

    Both are kernels of the one interface of {!Kernel}, run by its two
    drivers ({!Simulator.run_class} closed, {!Live} incremental); neither
    builds anything per event: slot and group floats live in all-float
    (flat) records, and every float the driver exchanges with them goes
    through the shared {!Clock.t}.

    Agreement: the drivers replay the general loop's event semantics —
    the shared {!Clock.threshold}, completion-beats-arrival tie rule —
    and the kernels its (key, id) priority order; the fixed-priority
    kernel uses operation-for-operation identical arithmetic at rate 1,
    so flow times agree with [Simulator.run ~policy:...] to <= 1e-9
    relative (differential-tested across m in {1, 2, 8}); SETF's lazily
    materialized levels accumulate rounding in a different association
    order, within the same bound. *)

type kind = Srpt | Sjf | Fcfs | Hdf of { alpha : float }
(** The static-while-waiting keys the kernel can rank by; one-to-one
    with {!Policy_class.key} (see {!kind_of_key}).  [Hdf] is highest
    density first with weight size^alpha: key [-(size^alpha / size)], so
    the densest job is the smallest key. *)

val kind_of_key : Policy_class.key -> kind
(** The bijection with the classification layer's {!Policy_class.key}:
    {!Kernel} runs [Static_key k] on the slots of [kind_of_key k]. *)

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

(** {2 The fixed-priority kernel}

    Driven through {!Kernel} (one closed driver, one live one): jobs
    arrive through the clock's [arrival]/[size] slots, the clock's [now]
    is the instant every primitive acts at, and nothing here builds
    anything per event.  The state contains no closures. *)

type slots

val create :
  clk:Clock.t -> scratch:Arena.t option -> machines:int -> speed:float -> kind -> slots
(** The waiting heap comes from [scratch] ({!Arena}) when given. *)

val alive : slots -> int

val admit : slots -> int -> unit
(** Admit job [id] released at [clk.arrival] with size [clk.size]: it
    takes a free machine, or preempts the weakest running job iff it
    beats it under (key, id), or waits.  Waiting-heap inserts read their
    floats from flat records, so an admission allocates nothing. *)

val next_internal : slots -> unit
(** Earliest running completion from [clk.now] into [clk.t_next]. *)

val advance : slots -> unit
(** Serve the running jobs for [clk.dt]. *)

val settle : slots -> Clock.log -> unit
(** Retire the running jobs within the completion threshold into the
    log, then seat the best waiting jobs on the freed machines.  A
    newcomer within the threshold of zero that had to wait is retired
    here too, at the first settle after its admission, as the general
    loop retires it. *)

val iter_alive : slots -> (int -> float -> float -> unit) -> unit
(** [f id arrival rate] over running (rate 1) then waiting jobs. *)

(** {2 The SETF cascade}

    Same contract as the fixed-priority kernel; [setf_refresh]
    water-fills the group list once per event. *)

type setf

val setf_create : clk:Clock.t -> scratch:Arena.t option -> machines:int -> speed:float -> setf
val setf_alive : setf -> int
val setf_admit : setf -> int -> unit
val setf_refresh : setf -> unit
val setf_next_internal : setf -> unit
(** Earliest within-group completion or adjacent catch-up. *)

val setf_advance : setf -> unit
(** Advance the served prefix for [clk.dt], to [clk.t_next]. *)

val setf_settle : setf -> Clock.log -> unit
(** Retire completed members into the log, then merge groups that caught
    up. *)

val setf_iter_alive : setf -> (int -> float -> float -> unit) -> unit
