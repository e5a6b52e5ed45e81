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
    supply costs Dijkstra searches and nothing more.

    {2 One search, many paths}

    A search never stops at the sink.  It records every residual edge
    into the sink from a node it settles, at that node's distance plus
    the edge's reduced cost, and keeps going until the edges whose
    lengths no open label can undercut have room for the supply still to
    route (with no [max_flow], until it has reached everything).  The
    solver then augments along those edges' shortest-path-tree paths,
    shortest first, for as long as each path is intact and the one before
    it filled its sink edge: each such path is a shortest path of the
    residual network at its turn, so the flows — and the cost — are the
    ones a search per path would give, ties between equally short paths
    going to the edge recorded first.  Routing one job's p_j into the
    LP's slots takes about one search however many slots it fills
    ({!searches}, {!augmentations}); {!batches_ended} says why each
    batch stopped.

    {2 Layout}

    {!add_edge} appends an edge to a list of edge pairs (both endpoints,
    capacity, cost), and the handle it returns names the pair: [2i] the
    forward edge, [2i + 1] its residual twin.  Before the first search,
    and again before the first search after more edges were added, the
    network lays the arcs out by tail node in compressed sparse rows:
    each node's arcs in one contiguous run, newest first, each arc
    holding its head, its cost, its twin, its own residual capacity and,
    beside it, its twin's.  So the residual test of a search reads
    nothing outside the node's run.  An augmentation writes each new
    capacity twice, on its own arc and beside its twin; the two copies
    are the same float.  A handle maps to its arc through the layout, so
    {!flow_on} and the handle-ordered Bellman-Ford passes ({!resolve}'s
    repair, {!no_negative_cycle}) work across layouts.

    {e Why no float depends on the layout.}  The layout decides where an
    arc is stored, not which arcs a search relaxes, in which order, or
    with which operands.  A node's run lists its arcs newest first, the
    order of a per-node list that each {!add_edge} prepends to; the
    saturation test compares an arc's capacity with its twin's, whichever
    copy it reads; and the repair relaxes edges in handle order.  The
    scan order decides which of two equally short labels a search keeps,
    so it is part of every potential, flow and cost the solver returns,
    and it is fixed by the order of the {!add_edge} calls alone.

    {2 Recycling}

    {!reset} empties a network for a new problem and keeps its storage.
    Every array grows to the largest size asked of it ({!reserve} sizes
    the edge list exactly) and never shrinks, so a caller that solves
    many problems in turn allocates nothing once the network has seen
    its largest one.  {!Rr_lp.Lp_bound} solves every component of every
    LP on one network per domain.  A network must not be shared between
    domains. *)

type t

type batch_end =
  | Path_cut
      (** A certified path was no longer intact: an earlier path of the
          batch saturated one of its arcs. *)
  | Room_left
      (** The previous entry's sink arc still had room, so the next
          entry's path need not be a shortest one. *)
  | Entries_used  (** Every certified entry was augmented, with supply left. *)
  | Supply_routed  (** The supply asked for is routed. *)
  | Sink_unreachable  (** The search certified no entry: the sink is out of reach. *)
(** Why a search's batch of augmentations ended.  Every search ends one
    batch, for one cause: no certified entry is [Sink_unreachable]; else
    a cut path, then a sink arc with room, then routed supply, then
    used-up entries. *)

val create : n_nodes:int -> t
(** Network with nodes [0 .. n_nodes-1] and no edges.
    @raise Invalid_argument when [n_nodes < 1]. *)

val reset : t -> n_nodes:int -> unit
(** [reset t ~n_nodes] empties [t] into a network with nodes
    [0 .. n_nodes-1], no edges, zero potentials and no flow — what
    {!create} would build — keeping its storage.  Handles of the previous
    problem are void.  The counters ({!edges_added}, {!searches},
    {!augmentations}, {!batches_ended}) keep counting.
    @raise Invalid_argument when [n_nodes < 1]. *)

val reserve : t -> edges:int -> unit
(** [reserve t ~edges] makes room for exactly [edges] more {!add_edge}
    calls, so a caller that knows its edge count builds the network
    without regrowing it.  Adding more still works.
    @raise Invalid_argument when [edges < 0]. *)

val add_edge : t -> src:int -> dst:int -> capacity:float -> cost:float -> int
(** Add a directed edge and its implicit residual reverse edge; returns an
    edge handle usable with {!flow_on}.  Edges may also be added {e after}
    a solve: they join the residual network and take part in the next
    {!resolve}, which lays the network out again first.  Inlined (release
    builds), so a caller's two floats are not boxed.
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

val edges_added : t -> int
(** {!add_edge} calls on this network so far, across {!reset}s. *)

val searches : t -> int
(** Dijkstra searches run on this network so far, across {!reset}s. *)

val augmentations : t -> int
(** Augmenting paths pushed on this network so far, across {!reset}s. *)

val batches_ended : t -> batch_end -> int
(** Searches on this network so far, across {!reset}s, whose batch ended
    for the given cause.  Over the five causes they sum to {!searches}. *)

val flow_on : t -> int -> float
(** Flow routed over the edge with the given handle after {!solve}; [0.]
    for an edge added since the last solve or resolve. *)

val no_negative_cycle : t -> bool
(** Optimality self-certificate: after {!solve} (or {!resolve}), the
    current flow is a minimum-cost flow of its value iff the residual
    network contains no negative-cost cycle.  Runs Bellman-Ford over the
    residual edges; the test suite asserts this on every solved network,
    turning the solver into a self-checking oracle. *)
