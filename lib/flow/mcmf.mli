(** Minimum-cost maximum-flow on networks with real capacities and
    non-negative real costs.

    This is the exact solver behind the paper's LP relaxation
    ({!Rr_lp.Lp_bound}): after time discretisation, LP_primal is a
    transportation problem, which is solved here by successive shortest
    augmenting paths with Johnson potentials (Dijkstra on reduced costs).
    With non-negative costs the algorithm returns an exact optimum for the
    amount of flow it pushes.  To keep the augmentation count finite in
    floating point, an edge whose residual capacity [r] satisfies
    [r <= 1e-12 *. (1. +. r +. r')] counts as saturated, where [r'] is the
    residual capacity of its reverse twin — so [r + r'] is the edge's
    original capacity and the threshold scales per edge, not with the
    largest capacity in the network.

    {2 Warm starts}

    {!solve} leaves the network in its residual state {e and keeps the
    Johnson potentials}, so the network is a reusable basis rather than a
    spent artifact: after a perturbation — more flow requested via
    [?max_flow], or new edges added with {!add_edge} (the way
    {!Rr_lp.Lp_bound} widens per-job slot windows) — {!resolve} repairs the
    potentials with one Bellman-Ford fixpoint over the residual edges and
    continues augmenting from the previous optimum instead of recomputing
    every shortest path from scratch.  The continuation is exact: as long
    as the perturbation does not make the existing flow suboptimal at its
    own value (no negative residual cycle — {!resolve} detects and refuses
    that case), the warm result equals a cold solve of the perturbed
    network, differential-tested to <= 1e-9 in the suite.

    {2 Several sources}

    The potentials are a property of the residual network, not of the
    node a search starts from: every augmentation keeps each residual
    reduced cost non-negative, whichever node its path began at.  So any
    node may be the [source] of a later {!resolve}, and supplies placed
    at different nodes can be routed one at a time — [solve ~max_flow:s1
    ~source:v1], then [resolve ~max_flow:s2 ~source:v2], and so on —
    which is successive shortest paths with node imbalances: every
    intermediate state is a min-cost flow for the supplies routed so far,
    and once every supply is routed the cost equals a super-source solve
    of the same supplies.
    A later path may cancel flow an earlier one routed, through a reverse
    edge.  {!resolve} runs its Bellman-Ford repair only when {!add_edge}
    was called since the last augmentation, so routing supply after
    supply costs one Dijkstra per augmenting path and nothing more. *)

type t

val create : n_nodes:int -> t
(** Network with nodes [0 .. n_nodes-1] and no edges.
    @raise Invalid_argument when [n_nodes < 1]. *)

val add_edge : t -> src:int -> dst:int -> capacity:float -> cost:float -> int
(** Add a directed edge and its implicit residual reverse edge; returns an
    edge handle usable with {!flow_on}.  Edges may also be added {e after}
    a solve: they join the residual network and take part in the next
    {!resolve}.
    @raise Invalid_argument on out-of-range endpoints, negative or
    non-finite capacity, or negative or non-finite cost. *)

type outcome = {
  flow : float;  (** Total flow pushed from source to sink. *)
  cost : float;  (** Total cost of that flow (compensated summation). *)
}

val solve : ?max_flow:float -> t -> source:int -> sink:int -> outcome
(** [solve t ~source ~sink] computes a minimum-cost flow of value
    [min(max_flow, max-flow value)] (default: the maximum flow).  The
    network is consumed: capacities are mutated to the residual state and
    the Johnson potentials are retained for {!resolve}.
    @raise Invalid_argument when [source = sink], either is out of range,
    or the network was {e already} solved — a second cold [solve] would
    silently price the residual state as if it were fresh, so it refuses;
    continue a consumed network with {!resolve} instead. *)

val resolve : ?max_flow:float -> t -> source:int -> sink:int -> outcome
(** Warm-started continuation: when edges were added since the last
    augmentation, repairs the stored potentials (one Bellman-Ford fixpoint
    over the residual edges); then keeps augmenting — up to [max_flow]
    {e additional} units, from [source], which need not be the node
    earlier calls started from — from the previous basis.  The returned outcome is {e cumulative} over every
    solve/resolve on this network, so it is directly comparable to a cold
    {!solve} of the perturbed network.
    @raise Invalid_argument when the network has not been solved yet, when
    [source = sink], or when either node is out of range.
    @raise Failure when the perturbation created a negative residual
    cycle (the existing flow is no longer optimal at its own value, so a
    warm continuation would be wrong; re-solve from a fresh network). *)

val solved : t -> bool
(** Whether {!solve} has consumed this network (i.e. whether the next
    entry point is {!resolve}). *)

val flow_on : t -> int -> float
(** Flow routed over the edge with the given handle after {!solve}. *)

val no_negative_cycle : t -> bool
(** Optimality self-certificate: after {!solve} (or {!resolve}), the
    current flow is a minimum-cost flow of its value iff the residual
    network contains no negative-cost cycle.  Runs Bellman-Ford over the
    residual edges; the test suite asserts this on every solved network,
    turning the solver into a self-checking oracle. *)
