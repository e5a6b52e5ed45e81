(* Knife-edge MLFQ instances, shared by the rr_simcore and rr_live
   differential suites.

   Every job's size sits on a demotion threshold T_l of the ladder, on
   the edge of its tolerance band T_l +- 1e-9 (1 + T_l), or a few ulps
   either side of those: a job that finishes exactly as it is promoted,
   or an ulp before or after, is where an engine that tables the ladder
   or accumulates service in different interval splits would first
   classify a landing differently from the general loop.  Base quanta
   cover 1e-10 (whose first bands are negative, so fresh jobs start
   above level 0) and 0.5, factors 1 and 2, machine counts 1, 2 and 8.
   Arrivals spread over about one busy period of the instance, with
   exact ties, so promotions and completions interleave. *)

module Policy_class = Rr_engine.Policy_class

let levels = 24

type edge = On | Below | Above

type case = {
  base_quantum : float;
  factor : float;
  machines : int;
  jobs : (int * edge * int * float) list;  (* level, edge, ulp shift, arrival fraction *)
}

let gen =
  QCheck2.Gen.(
    let job =
      quad (int_range 0 (levels - 2)) (oneofl [ On; Below; Above ]) (int_range (-3) 3)
        (oneof [ return 0.; float_range 0. 1. ])
    in
    map
      (fun ((base_quantum, factor), machines, jobs) -> { base_quantum; factor; machines; jobs })
      (triple
         (pair (oneofl [ 1e-10; 0.5 ]) (oneofl [ 1.; 2. ]))
         (oneofl [ 1; 2; 8 ])
         (list_size (int_range 1 30) job)))

let print c =
  Printf.sprintf "q=%g f=%g m=%d jobs=[%s]" c.base_quantum c.factor c.machines
    (String.concat "; "
       (List.map
          (fun (l, e, u, a) ->
            Printf.sprintf "(%d,%s,%d,%h)" l
              (match e with On -> "on" | Below -> "below" | Above -> "above")
              u a)
          c.jobs))

let rec shift x k =
  if k = 0 then x else if k > 0 then shift (Float.succ x) (k - 1) else shift (Float.pred x) (k + 1)

let size c (level, edge, ulps, _) =
  let t = Policy_class.ladder_threshold ~base_quantum:c.base_quantum ~factor:c.factor level in
  let eps = 1e-9 *. (1. +. t) in
  let x = match edge with On -> t | Below -> t -. eps | Above -> t +. eps in
  let x = shift x ulps in
  (* Below-band sizes of the smallest thresholds are not positive. *)
  if x > 0. then x else t

(* (arrival, size) pairs: arrivals are fractions of the instance's total
   work per machine, so the machines stay busy across promotions. *)
let pairs c =
  let sizes = List.map (size c) c.jobs in
  let span = List.fold_left ( +. ) 0. sizes /. Float.of_int c.machines in
  List.map2 (fun (_, _, _, u) s -> (u *. span, s)) c.jobs sizes

let policy c = Rr_policies.Mlfq.policy ~base_quantum:c.base_quantum ~factor:c.factor ~levels ()

(* Fixed seeds: the same cases run on every build. *)
let to_alcotest ~seed test = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) test
