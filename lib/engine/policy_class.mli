(** First-class priority descriptors: the classification layer between
    policies and engines.

    A policy that declares its class (via {!Policy.t}'s [klass] field)
    gets a specialised engine by construction — the engine layer
    dispatches on the descriptor, not on the policy's identity, so a new
    policy never needs a hand-written kernel, only a declaration:

    - {!Equal_share}: every alive job at the same rate — the closed-form
      virtual-service deadline cascade (round-robin).
    - {!Static_key}: the served set is the m alive jobs smallest under a
      per-job key that never crosses another job's key while both wait
      (SRPT's remaining, SJF's size, FCFS's arrival, HDF's negated
      density) — the slot/heap priority-index kernel.
    - {!Attained_cascade}: least attained service first (SETF) — the
      equal-attained group cascade.
    - {!Level_ladder}: MLFQ's cumulative quantum ladder over attained
      service — levels served lowest first, equal share within a level.
    - {!Quantum_cycle}: discrete round-robin with a per-slot quantum and
      a FIFO ready queue.
    - {!Latest_fraction}: LAPS — equal share over the latest
      ceil(beta n) arrivals.
    - {!Aged_share}: WRR-age — proportional share under age^(k-1)
      weights, refreshed on a drift horizon.
    - {!Sized_share}: WRR-static — proportional share under static
      size^gamma weights.
    - {!Starvation_hybrid}: Kuo's starvation mitigation — SRPT until a
      job's flow/size ratio crosses theta, FCFS priority for the
      starved.
    - {!Preempt_budget}: migration-limited SRPT — a job preempted
      [budget] times becomes non-preemptible once it next runs.

    Descriptors are plain data (no closures): they are embedded in
    {!Live} engine state, which snapshots with [Marshal]. *)

type key =
  | Key_remaining  (** SRPT: remaining work, frozen while waiting. *)
  | Key_size  (** SJF. *)
  | Key_arrival  (** FCFS. *)
  | Key_density of { alpha : float }
      (** HDF with weight size^alpha: key = -(size^alpha / size). *)

type t =
  | Equal_share
  | Static_key of key
  | Attained_cascade
  | Level_ladder of { base_quantum : float; factor : float; levels : int }
  | Quantum_cycle of { quantum : float }
  | Latest_fraction of { beta : float }
  | Aged_share of { k : int; refresh : float; offset : float }
  | Sized_share of { gamma : float }
  | Starvation_hybrid of { theta : float }
  | Preempt_budget of { budget : int }

val engine_name : t -> string
(** The audit string of the kernel that runs this class ("srpt-index",
    "mlfq-ladder", "laps-dense", ...); {!Run.engine_name} and the cache
    key derive from it, so results produced by different kernels never
    alias. *)

val clairvoyant : t -> bool
(** Whether the class's kernel reads job sizes (a classified policy's
    [clairvoyant] flag must agree with its class). *)

val static_key : key -> arrival:float -> size:float -> remaining:float -> float
(** The priority key of a job under a {!Static_key} class — the one
    expression both the mirror policy and the index kernel evaluate, so
    they order jobs identically down to the last bit. *)

val starve_time : theta:float -> arrival:float -> size:float -> float
(** [arrival + theta * size]: the instant a job's flow/size ratio
    reaches theta.  Shared by the hybrid mirror policy and the hybrid
    kernel's promotion events. *)

(** {2 Shared reference computations}

    The numeric kernels both the mirror policies and the class engines
    call, so the two sides compute bit-identical floats. *)

val capped_rates : machines:int -> float array -> float array
(** [capped_rates ~machines sorted_weights] solves the capped
    proportional allocation — rates [min(1, theta * w_i)] with the
    largest [theta] such that the sum is at most [machines] — over
    weights {e already sorted} by (weight desc, id asc).  A dense engine
    that maintains its jobs in that order calls this directly and skips
    the sort. *)

val capped_rates_into :
  machines:int ->
  n:int ->
  weights:float array ->
  suffix:float array ->
  rates:float array ->
  unit
(** Allocation-free {!capped_rates} over caller-owned buffers: the first
    [n] entries of [weights] are the sorted weights, [suffix] (length
    >= [n + 1]) is scratch, and the rates land in [rates.(0 .. n-1)].
    Same arithmetic and accumulation order as {!capped_rates} (which
    delegates here), so results are bit-identical; the engines that
    recompute rates every event reuse grow-only buffers through this
    entry point instead of allocating three arrays per event. *)

val proportional_rates : machines:int -> ids:int array -> float array -> float array
(** The unsorted entry point: sorts by (weight desc, id asc) — [ids.(i)]
    is the job id of entry [i] — then applies {!capped_rates} and
    scatters the rates back.  The id tie-break fixes one deterministic
    summation order.
    @raise Invalid_argument when [ids] and [weights] differ in length. *)

val ladder_level : base_quantum:float -> factor:float -> levels:int -> float -> int
(** The MLFQ level a job with the given attained service occupies:
    demotion thresholds are the cumulative sums of geometrically growing
    quanta, and the last level is absorbing.  Attained service within a
    [1e-9 * (1 + threshold)] band below a threshold counts as past it —
    promotion events land on thresholds exactly, and the tolerance keeps
    the classification stable under the differing rounding of engines
    that split service intervals (see {!section-classes}). *)

val ladder_threshold : base_quantum:float -> factor:float -> int -> float
(** The cumulative demotion threshold of a level: the attained service
    at which a job leaves it (sum of the first level+1 quanta). *)

type ladder_table = {
  thresholds : float array;
      (** [thresholds.(l)] = [ladder_threshold l], for [l < levels - 1]. *)
  bands : float array;
      (** [bands.(l)] = [thresholds.(l) -. 1e-9 *. (1. +. thresholds.(l))]:
          attained service at or above it has left level [l]. *)
}
(** A ladder's non-absorbing levels, tabled once by {!ladder_table} with
    exactly the float recurrences of {!ladder_level} and
    {!ladder_threshold}, so both read bit-identical values off it. *)

val ladder_table : base_quantum:float -> factor:float -> levels:int -> ladder_table

val table_level : ladder_table -> from:int -> float -> int
(** [table_level t ~from attained] scans forward from a cached level
    [from] (any level at most the answer — e.g. the level of a smaller
    attained service, or [0]) and returns
    [ladder_level ~base_quantum ~factor ~levels attained] for the ladder
    [t] was built from.  Attained service never decreases, so an engine
    that caches each job's level pays for the levels a job actually
    climbs, not for the whole ladder on every event. *)

val validate : t -> (unit, string) result
(** Parameter sanity ([Error] carries a human-readable diagnostic). *)

val describe : t -> string
(** One-line human description, used by the README coverage table. *)
