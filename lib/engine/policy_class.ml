(* First-class priority descriptors: the declaration a policy makes so
   the engine layer can run it on a specialised kernel instead of the
   general O(alive log alive) event loop.  See policy_class.mli.

   Everything here is plain data — floats, ints, closed variants, no
   closures — because a descriptor is embedded in {!Live} engine state,
   which snapshots with [Marshal]. *)

type key =
  | Key_remaining
  | Key_size
  | Key_arrival
  | Key_density of { alpha : float }

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

let key_name = function
  | Key_remaining -> "srpt"
  | Key_size -> "sjf"
  | Key_arrival -> "fcfs"
  | Key_density _ -> "hdf"

(* The audit string each engine selection prints and cache entries key
   on; one name per kernel, stable across parameter values (parameters
   are part of the policy name, which is also in the cache key). *)
let engine_name = function
  | Equal_share -> "equal-share"
  | Static_key k -> key_name k ^ "-index"
  | Attained_cascade -> "setf-cascade"
  | Level_ladder _ -> "mlfq-ladder"
  | Quantum_cycle _ -> "quantum-cycle"
  | Latest_fraction _ -> "laps-dense"
  | Aged_share _ -> "wrr-age-dense"
  | Sized_share _ -> "wrr-static-dense"
  | Starvation_hybrid _ -> "hybrid-index"
  | Preempt_budget _ -> "srpt-mig-index"

let clairvoyant = function
  | Static_key (Key_remaining | Key_size | Key_density _)
  | Sized_share _ | Starvation_hybrid _ | Preempt_budget _ ->
      true
  | Equal_share | Static_key Key_arrival | Attained_cascade | Level_ladder _
  | Quantum_cycle _ | Latest_fraction _ | Aged_share _ ->
      false

(* The static priority key of a job under a [Static_key] class.  Shared
   between the mirror policies (via {!static_key_of_view}) and the index
   kernel so both compute the identical float. *)
let[@inline] static_key k ~arrival ~size ~remaining =
  match k with
  | Key_remaining -> remaining
  | Key_size -> size
  | Key_arrival -> arrival
  | Key_density { alpha } -> -.((size ** alpha) /. size)

(* The instant a job crosses the starvation threshold: its flow/size
   ratio reaches theta.  One expression, shared by the hybrid mirror
   policy (starved iff [now >= starve_time]) and the hybrid kernel
   (promotion events fire at exactly this float), so the two sides agree
   bit for bit on who is starved when. *)
let starve_time ~theta ~arrival ~size = arrival +. (theta *. size)

(* ------------------------------------------------------------------ *)
(* Shared reference computations                                       *)
(* ------------------------------------------------------------------ *)

(* These are the numeric kernels the mirror policies AND the class
   engines both call, so the two sides compute bit-identical floats; the
   differential suites then only absorb rounding from interval-splitting
   and accumulation order, never from reimplemented formulas. *)

(* Capped proportional allocation over weights already sorted by
   (weight desc, id asc): the [c] heaviest jobs are capped at rate 1,
   the rest share the remaining machines proportionally; [c] is the
   smallest count for which no uncapped job exceeds rate 1. *)
(* In-place variant for engines that recompute rates every event: the
   caller owns [weights] (first [n] entries live), a [suffix] scratch of
   length >= n + 1, and the [rates] output of length >= n.  Arithmetic,
   accumulation order, and tie handling are exactly those of
   {!capped_rates}, which delegates here, so the two can never drift. *)
let capped_rates_into ~machines ~n ~weights ~suffix ~rates =
  let m = Float.of_int machines in
  if n <= machines then Array.fill rates 0 n 1.
  else begin
    suffix.(n) <- 0.;
    for i = n - 1 downto 0 do
      suffix.(i) <- suffix.(i + 1) +. weights.(i)
    done;
    (* A loop rather than a local recursive function: the latter would
       allocate its closure on every call, i.e. once per engine event. *)
    let c = ref 0 in
    while !c < machines && weights.(!c) *. ((m -. Float.of_int !c) /. suffix.(!c)) > 1. do
      incr c
    done;
    let c = !c in
    let theta = if c = machines then 0. else (m -. Float.of_int c) /. suffix.(c) in
    for i = 0 to n - 1 do
      rates.(i) <- (if i < c then 1. else Float.min 1. (weights.(i) *. theta))
    done
  end

let capped_rates ~machines sorted_weights =
  let n = Array.length sorted_weights in
  let rates = Array.make n 0. in
  let suffix = Array.make (n + 1) 0. in
  capped_rates_into ~machines ~n ~weights:sorted_weights ~suffix ~rates;
  rates

let proportional_rates ~machines ~ids weights =
  let n = Array.length weights in
  if Array.length ids <> n then
    invalid_arg "Policy_class.proportional_rates: ids and weights must have equal length";
  if n <= machines then Array.make n 1.
  else begin
    (* Weight ties break by increasing job id so the suffix sums above
       accumulate in one deterministic order — a dense engine that keeps
       its jobs pre-sorted replays the same order via {!capped_rates}. *)
    let idx = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        match Float.compare weights.(b) weights.(a) with
        | 0 -> Int.compare ids.(a) ids.(b)
        | c -> c)
      idx;
    let sorted = Array.map (fun i -> weights.(i)) idx in
    let sorted_rates = capped_rates ~machines sorted in
    let rates = Array.make n 0. in
    Array.iteri (fun rank i -> rates.(i) <- sorted_rates.(rank)) idx;
    rates
  end

(* MLFQ's cumulative demotion ladder: T_0 = q, T_1 = q + q f, ...; a job
   sits in the first level whose threshold its attained service has not
   reached, and stays in the last level forever once past all
   thresholds.

   The comparison carries the same relative tolerance as the simulator's
   completion threshold.  Promotion events drive [attained] to land on a
   threshold exactly, so an exact [<] would classify the landing by its
   last rounding error — engines that accumulate service in different
   interval splits (the live engine advances to caller horizons) could
   then disagree on the level and diverge macroscopically.  Within the
   band every engine agrees the job has promoted. *)
let ladder_level ~base_quantum ~factor ~levels attained =
  let rec go level threshold quantum =
    if level >= levels - 1 || attained < threshold -. (1e-9 *. (1. +. threshold)) then level
    else go (level + 1) (threshold +. (quantum *. factor)) (quantum *. factor)
  in
  go 0 base_quantum base_quantum

let ladder_threshold ~base_quantum ~factor level =
  (* Sum of the first (level+1) quanta. *)
  let rec go l acc quantum =
    if l > level then acc else go (l + 1) (acc +. quantum) (quantum *. factor)
  in
  go 0 0. base_quantum

(* The ladder tabled once: the thresholds and their tolerance bands for
   every non-absorbing level, built with exactly the recurrences above
   (T_{l+1} = T_l + q_l f, q_{l+1} = q_l f, band = T - 1e-9 (1 + T)), so
   each entry is the float [ladder_level] compares against and
   [ladder_threshold] returns.  An engine that caches each job's level
   then only scans forward from it: attained service never decreases, and
   every band below a job's cached level was already passed at the smaller
   attained value that put it there, so the scan stops at the level
   [ladder_level] would find from 0. *)
type ladder_table = { thresholds : float array; bands : float array }

let ladder_table ~base_quantum ~factor ~levels =
  let n = Int.max 0 (levels - 1) in
  let thresholds = Array.make n 0. and bands = Array.make n 0. in
  let threshold = ref base_quantum and quantum = ref base_quantum in
  for l = 0 to n - 1 do
    thresholds.(l) <- !threshold;
    bands.(l) <- !threshold -. (1e-9 *. (1. +. !threshold));
    let q = !quantum *. factor in
    threshold := !threshold +. q;
    quantum := q
  done;
  { thresholds; bands }

let[@inline] table_level t ~from attained =
  let top = Array.length t.bands in
  let l = ref from in
  while !l < top && not (attained < t.bands.(!l)) do
    incr l
  done;
  !l

let validate = function
  | Equal_share | Attained_cascade -> Ok ()
  | Static_key (Key_remaining | Key_size | Key_arrival) -> Ok ()
  | Static_key (Key_density { alpha }) ->
      if Float.is_finite alpha then Ok () else Error "hdf alpha must be finite"
  | Level_ladder { base_quantum; factor; levels } ->
      if base_quantum <= 0. then Error "mlfq base quantum must be positive"
      else if factor < 1. then Error "mlfq factor must be >= 1"
      else if levels < 1 then Error "mlfq levels must be >= 1"
      else Ok ()
  | Quantum_cycle { quantum } ->
      if quantum > 0. then Ok () else Error "quantum must be positive"
  | Latest_fraction { beta } ->
      if beta > 0. && beta <= 1. then Ok () else Error "laps beta must be in (0, 1]"
  | Aged_share { k; refresh; offset } ->
      if k < 1 then Error "wrr-age k must be >= 1"
      else if refresh <= 0. then Error "wrr-age refresh must be positive"
      else if offset <= 0. then Error "wrr-age offset must be positive"
      else Ok ()
  | Sized_share { gamma } ->
      if Float.is_finite gamma then Ok () else Error "wrr-static gamma must be finite"
  | Starvation_hybrid { theta } ->
      if Float.is_finite theta && theta > 0. then Ok ()
      else Error "hybrid theta must be finite and positive"
  | Preempt_budget { budget } ->
      if budget >= 0 then Ok () else Error "srpt-mig budget must be >= 0"

let describe = function
  | Equal_share -> "equal share (processor sharing)"
  | Static_key Key_remaining -> "static key: remaining work (frozen while waiting)"
  | Static_key Key_size -> "static key: size"
  | Static_key Key_arrival -> "static key: arrival"
  | Static_key (Key_density { alpha }) ->
      Printf.sprintf "static key: negated density size^%g/size" alpha
  | Attained_cascade -> "least-attained-service cascade"
  | Level_ladder { base_quantum; factor; levels } ->
      Printf.sprintf "attained-service quantum ladder (q=%g, f=%g, %d levels)" base_quantum
        factor levels
  | Quantum_cycle { quantum } -> Printf.sprintf "round-robin quantum cycle (q=%g)" quantum
  | Latest_fraction { beta } ->
      Printf.sprintf "equal share over the latest ceil(%g n) arrivals" beta
  | Aged_share { k; _ } -> Printf.sprintf "age^%d-weighted proportional share" (k - 1)
  | Sized_share { gamma } -> Printf.sprintf "size^%g-weighted proportional share" gamma
  | Starvation_hybrid { theta } ->
      Printf.sprintf "SRPT, FCFS once flow/size >= %g" theta
  | Preempt_budget { budget } ->
      Printf.sprintf "SRPT, non-preemptible after %d preemptions" budget
