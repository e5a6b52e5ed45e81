(* The certification path: [Ratio.vs_certified] for Round Robin against
   the section 3.1 LP at k = 2, one machine.  It is bound by [Lp_bound] /
   [Mcmf] / [Bound]; it touches the simulation kernels for one RR and one
   SRPT run and never touches [Live] or the wire.

   The instances are batches of 20 Exp(1) jobs every 40 time units (load
   0.5), so each batch is its own busy period and every seed yields the
   same kind of LP.  Poisson arrivals at load 0.9 do not: one long busy
   period dominates the LP, and the certification time of n = 300 ranged
   from 0.4 s to 13.5 s over six seeds.  The tolerance sits between the
   relative gaps this family reaches at slot widths 0.5 (about 0.09) and
   1 (about 0.18), so every seed stops after the same four LP solves. *)

module Run = Temporal_fairness.Run
module Ratio = Temporal_fairness.Ratio
module Lp_bound = Rr_lp.Lp_bound

let tol = 0.125
let k = 2

let instance ~seed ~n =
  Rr_workload.Instance.generate ~rng:(Rr_util.Prng.create ~seed)
    ~arrivals:(Rr_workload.Arrivals.Batched { batch = 20; interval = 40. })
    ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
    ~n ()

let certify ?pool inst =
  Span.with_ "Ratio.vs_certified" (fun () ->
      Ratio.vs_certified ?pool ~tol (Run.config ~k ()) Rr_policies.Round_robin.policy inst)

(* Invariants every certified point must satisfy. *)
let check_point ~what (c : Ratio.certified) =
  let lo, hi =
    match c.interval with Some i -> (i.Lp_bound.lo, i.Lp_bound.hi) | None -> (0., 0.)
  in
  Outcome.check
    (c.lp_solved && lo <= hi && c.floor <= c.ratio *. (1. +. 1e-9) && Float.is_finite c.ratio)
    "%s: certified point broken (lp_solved %b, lo %.17g, hi %.17g, floor %.17g, ratio %.17g)"
    what c.lp_solved lo hi c.floor c.ratio

(* Reference check: a fixed small instance whose certified ratio is
   committed in reference.json. *)
let check_reference (refs : Json.t) =
  let seed = int_of_float (Json.to_num (Json.member "seed" refs)) in
  let n = int_of_float (Json.to_num (Json.member "n" refs)) in
  let want = Json.to_num (Json.member "ratio" refs) in
  Temporal_fairness.Cache.clear ();
  let c = certify (instance ~seed ~n) in
  check_point ~what:"certify reference" c;
  Outcome.check
    (Float.abs (c.ratio -. want) <= 1e-9 *. Float.abs want)
    "certify reference: ratio %.17g differs from the reference %.17g" c.ratio want

let reference_json ~seed ~n =
  Temporal_fairness.Cache.clear ();
  let c = certify (instance ~seed ~n) in
  Json.Obj
    [
      ("seed", Json.Num (Float.of_int seed));
      ("n", Json.Num (Float.of_int n));
      ("ratio", Json.Num c.ratio);
    ]
