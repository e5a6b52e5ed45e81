(** The paper's LP relaxation (Section 3.1), solved exactly.

    LP_primal:
    {v
      min   sum_j sum_{t >= r_j} gamma * (x_jt / p_j) * ((t - r_j)^k + p_j^k)
      s.t.  sum_t x_jt >= p_j          for every job j
            sum_j x_jt <= m            for every time t
            x_jt >= 0
    v}

    After discretising time into slots of width [delta] this is a
    transportation problem between jobs and slots, solved exactly by the
    min-cost-flow substrate {!Rr_flow.Mcmf}.  The per-unit-work cost of a
    job inside a slot can be evaluated at the earliest instant the job may
    run in that slot ([Slot_start], which only lowers the objective, so
    the discrete value {e lower-bounds} the continuous LP) or at the slot
    end ([Slot_end], which upper-bounds the continuous LP).  The paper
    shows LP <= 2 gamma OPT^k, so with [gamma = 1]
    [Slot_start]-value / 2 is a certified lower bound on OPT's sum of
    k-th powers of flow time — the quantity competitive ratios in the
    benchmark suite are measured against.

    {2 Production scale}

    Three mechanisms keep the certificate affordable at n = 2000+:

    - {e sparse windows} ({!windows}, the default): job j only receives
      arcs for the slots overlapping [\[r_j, deadline_j)], where
      [deadline_j] is the end of j's {e single-machine busy period} — a
      provable completion deadline for every work-conserving schedule on
      any number of unit-speed machines, and some optimal schedule is
      work-conserving, so the 2-gamma certificate survives the
      restriction and the optimum value is unchanged (differential-tested
      against [Dense]).  The network shrinks from O(n·slots) arcs to
      near-linear;
    - {e interval certification} ({!value_interval}): solve both modes at
      a coarse delta and refine only until the certified
      [\[Slot_start, Slot_end\]] bracket on the continuous LP is tight
      enough, instead of hard-coding one fine delta everywhere;
    - {e combinatorial pre-filter} ({!cheap_lower_bound}): a certified
      bound from one fast SRPT simulation, letting callers skip the LP
      entirely when the cheap bound already decides their question.

    {2 Routing}

    Each transportation network has job nodes, slot nodes and a sink, and
    no super source: every job's p_j is routed from its own node, one job
    at a time ({!Rr_flow.Mcmf.solve} for the first, {!Rr_flow.Mcmf.resolve}
    for each later one).  Jobs go in release order and, among jobs whose
    first slot is the same, smallest first.  The value does not depend on
    this order: it is successive shortest paths with node imbalances, so
    every intermediate flow is a min-cost flow for the supplies routed so
    far and the last one is the optimum of the whole problem.  The order
    only decides how often a job's path must cancel flow an earlier job
    routed; release order, smallest first, is close to how the optimum
    fills slots, so such cancellations are rare (about 3x fewer
    augmentations than a super-source solve on the benchmark's certify
    instance).  {!value} keeps no network once its cost is read. *)

type mode = Slot_start | Slot_end

type windows =
  | Dense  (** Every job may use every slot after its release — the
               original O(n·slots) build, kept as the differential
               oracle. *)
  | Sparse  (** Busy-period windows (the default): near-linear arcs, same
                optimum.  If rounding ever leaves work unrouted, windows
                double and each unfinished job's leftover is warm-resolved
                ({!Rr_flow.Mcmf.resolve}) until feasible. *)

val default_delta : float
(** [0.25] — the one named discretisation default; every fixed-delta call
    site in the experiment suite uses this instead of a local magic
    constant. *)

val default_tol : float
(** [0.05] — default relative gap for interval certification
    ({!value_interval}, [rr_cli lowerbound --tol]). *)

val value :
  ?mode:mode ->
  ?gamma:float ->
  ?windows:windows ->
  k:int ->
  machines:int ->
  delta:float ->
  Rr_workload.Instance.t ->
  float
(** LP optimum under the given discretisation (default [mode = Slot_start],
    [gamma = 1.], [windows = Sparse]).  The slot horizon is chosen large
    enough that the transportation problem is always feasible.
    @raise Invalid_argument when [k < 1], [machines < 1], [delta <= 0.],
    or the discretisation would need more than 200_000 slots.
    @raise Failure if the solver cannot route all work (horizon bug — this
    indicates an internal error, not bad input). *)

type interval = {
  lo : float;  (** [Slot_start] value at [delta]: certified lower bound on
                   the continuous LP value. *)
  hi : float;  (** [Slot_end] value at [delta]: certified upper bound on
                   the continuous LP value. *)
  delta : float;  (** The slot width the bracket converged at. *)
  solves : int;  (** LP evaluations requested (two per refinement level). *)
}
(** A certified bracket: the continuous LP value lies in [\[lo, hi\]], so
    [lo / 2] is a certified lower bound on OPT's power sum and
    [(hi - lo) / lo] bounds the certificate quality left on the table. *)

val value_interval :
  ?gamma:float ->
  ?windows:windows ->
  ?init_delta:float ->
  ?min_delta:float ->
  ?max_solves:int ->
  ?probe:((mode * float) list -> float list) ->
  tol:float ->
  k:int ->
  machines:int ->
  Rr_workload.Instance.t ->
  interval
(** Adaptive coarse-to-fine certification: evaluate both modes at
    [init_delta] (default [4 * default_delta]) and halve the slot width
    until [hi - lo <= tol * max lo 1e-12], [delta] would fall below
    [min_delta] (default [1e-4]), the probe budget [max_solves] (default
    64) would be exceeded, or the next level would blow the 200_000-slot
    limit — whichever comes first; the returned bracket is certified at
    every stopping reason, just possibly wider than [tol].

    [?probe] evaluates one batch of (mode, delta) requests and exists so
    callers can inject parallel or memoised evaluation
    ({!Temporal_fairness.Bound} fans the pair out on a [Pool] and caches
    each probe); the default evaluates sequentially via {!value}.
    @raise Invalid_argument on invalid [k]/[machines]/[init_delta], a
    non-positive [tol] or [min_delta], or a [probe] that does not return
    exactly one value per request. *)

val cheap_lower_bound :
  ?gamma:float -> k:int -> machines:int -> Rr_workload.Instance.t -> float
(** A certified lower bound on [gamma] times OPT's power sum, computable
    without any LP solve and scaled to sit at or below the LP certificate
    {!opt_power_lower_bound} so it can short-circuit it.  It is the larger
    of two floors, halved like the LP certificate:

    - [sum_j p_j^k]: every flow time is at least the job's size, and every
      unit of LP work costs at least [gamma * p^{k-1}], so this floor is
      below both OPT and the LP value at {e any} discretisation;
    - (one machine only) [(sum_j F_j^SRPT)^k / (2n)^{k-1}]: SRPT minimises
      total flow time on a single machine, so the power-mean inequality
      turns its total flow — computed by the fast priority-index engine —
      into a floor under OPT's power sum; the extra [2^{k-1}] is the
      [(a+p)^k <= 2^{k-1}(a^k + p^k)] slack separating the LP's split cost
      from the completion-time cost.

    Used by {!Temporal_fairness.Ratio.vs_certified} to run the LP only
    when the cheap bound leaves the ratio inside an interesting band.
    Returns [0.] for the empty instance.
    @raise Invalid_argument when [k < 1] or [machines < 1]. *)

val opt_power_lower_bound :
  ?windows:windows ->
  k:int -> machines:int -> delta:float -> Rr_workload.Instance.t -> float
(** [value ~mode:Slot_start ~gamma:1.] divided by 2: a certified lower
    bound on [min_schedules sum_j (C_j - r_j)^k].  Returns 0. for the
    empty instance. *)

val opt_norm_lower_bound :
  ?windows:windows ->
  k:int -> machines:int -> delta:float -> Rr_workload.Instance.t -> float
(** k-th root of {!opt_power_lower_bound}: a lower bound on the optimal
    lk-norm of flow time. *)

type solution = {
  value : float;  (** LP objective, as from {!value}. *)
  delta : float;  (** Slot width the solution is expressed in. *)
  allocation : (float * float) list array;
      (** Per job id: [(slot_start, work)] pairs with positive work,
          chronological. *)
}

val solve :
  ?mode:mode ->
  ?gamma:float ->
  ?windows:windows ->
  k:int ->
  machines:int ->
  delta:float ->
  Rr_workload.Instance.t ->
  solution
(** Like {!value} but also extracts the optimal fractional schedule from
    the flow network — how the LP chooses to spread each job's work over
    time.  The test suite checks the LP-feasibility invariants on it
    (release times respected, all work scheduled, slot capacity obeyed). *)

val completion_profile : solution -> job:int -> float
(** The fractional completion time of a job in the LP solution: the end of
    the last slot carrying any of its work.  Lower-bounds nothing by
    itself but shows where the relaxation finishes each job. *)
