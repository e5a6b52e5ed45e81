(* Tests for the LP layer: simplex on known programs, brute-force optima,
   and the soundness sandwich of the paper's LP relaxation. *)

open Rr_lp

let check_close ?(tol = 1e-6) msg a b = Alcotest.(check (float tol)) msg a b

(* ------------------------------------------------------------------ *)
(* Simplex                                                             *)
(* ------------------------------------------------------------------ *)

let test_simplex_basic_le () =
  (* min -x - y s.t. x + y <= 4, x <= 2 -> x = 2, y = 2, obj = -4. *)
  let p =
    {
      Simplex.objective = [| -1.; -1. |];
      rows = [ ([| 1.; 1. |], Simplex.Le, 4.); ([| 1.; 0. |], Simplex.Le, 2.) ];
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal { objective; x } ->
      check_close "objective" (-4.) objective;
      check_close "x" 2. x.(0);
      check_close "y" 2. x.(1)
  | _ -> Alcotest.fail "expected optimum"

let test_simplex_ge_eq () =
  (* min 2x + 3y s.t. x + y >= 4, x = 1 -> y = 3, obj = 11. *)
  let p =
    {
      Simplex.objective = [| 2.; 3. |];
      rows = [ ([| 1.; 1. |], Simplex.Ge, 4.); ([| 1.; 0. |], Simplex.Eq, 1.) ];
    }
  in
  match Simplex.solve p with
  | Simplex.Optimal { objective; x } ->
      check_close "objective" 11. objective;
      check_close "x" 1. x.(0);
      check_close "y" 3. x.(1)
  | _ -> Alcotest.fail "expected optimum"

let test_simplex_infeasible () =
  let p =
    {
      Simplex.objective = [| 1. |];
      rows = [ ([| 1. |], Simplex.Ge, 5.); ([| 1. |], Simplex.Le, 1.) ];
    }
  in
  match Simplex.solve p with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_simplex_unbounded () =
  (* min -x with only x >= 0: unbounded below. *)
  let p = { Simplex.objective = [| -1. |]; rows = [ ([| 1. |], Simplex.Ge, 0.) ] } in
  match Simplex.solve p with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_simplex_negative_rhs () =
  (* min x s.t. -x <= -3 (i.e. x >= 3). *)
  let p = { Simplex.objective = [| 1. |]; rows = [ ([| -1. |], Simplex.Le, -3.) ] } in
  match Simplex.solve p with
  | Simplex.Optimal { objective; _ } -> check_close "x = 3" 3. objective
  | _ -> Alcotest.fail "expected optimum"

let test_simplex_validation () =
  (match Simplex.solve { Simplex.objective = [||]; rows = [] } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty objective");
  match
    Simplex.solve { Simplex.objective = [| 1. |]; rows = [ ([| 1.; 2. |], Simplex.Le, 1.) ] }
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "ragged row"

(* ------------------------------------------------------------------ *)
(* Brute force                                                         *)
(* ------------------------------------------------------------------ *)

let test_brute_single_job () =
  check_close "one job flow = size" 3. (Brute.optimal_power_sum ~k:1 ~machines:1 [ (0, 3) ]);
  check_close "squared" 9. (Brute.optimal_power_sum ~k:2 ~machines:1 [ (0, 3) ])

let test_brute_two_jobs_srpt_order () =
  (* Sizes 1 and 3 at t = 0 on one machine: optimal l1 = 1 + 4 = 5. *)
  check_close "l1" 5. (Brute.optimal_power_sum ~k:1 ~machines:1 [ (0, 1); (0, 3) ]);
  (* l2 power: 1 + 16 = 17. *)
  check_close "l2 power" 17. (Brute.optimal_power_sum ~k:2 ~machines:1 [ (0, 1); (0, 3) ])

let test_brute_uses_both_machines () =
  (* Two unit jobs, two machines: both finish at time 1. *)
  check_close "parallel" 2. (Brute.optimal_power_sum ~k:1 ~machines:2 [ (0, 1); (0, 1) ])

let test_brute_respects_release () =
  (* A job cannot start before its arrival. *)
  check_close "release" 1. (Brute.optimal_power_sum ~k:1 ~machines:1 [ (5, 1) ])

let test_brute_validation () =
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected brute validation failure")
    [
      (fun () -> Brute.optimal_power_sum ~k:0 ~machines:1 [ (0, 1) ]);
      (fun () -> Brute.optimal_power_sum ~k:1 ~machines:0 [ (0, 1) ]);
      (fun () -> Brute.optimal_power_sum ~k:1 ~machines:1 [ (-1, 1) ]);
      (fun () -> Brute.optimal_power_sum ~k:1 ~machines:1 [ (0, 0) ]);
      (fun () -> Brute.optimal_power_sum ~k:1 ~machines:1 (List.init 9 (fun i -> (i, 1))));
    ]

(* ------------------------------------------------------------------ *)
(* LP bound                                                            *)
(* ------------------------------------------------------------------ *)

let inst_of_ints jobs =
  Rr_workload.Instance.of_jobs
    (List.map (fun (r, p) -> (Float.of_int r, Float.of_int p)) jobs)

let test_lp_single_job_value () =
  (* One job, size 1, released at 0, k = 1, delta = 1: the LP routes the
     unit of work into slot [0,1) at slot-start cost (0 + 1)/1 = 1. *)
  let inst = inst_of_ints [ (0, 1) ] in
  check_close "slot-start value" 1. (Lp_bound.value ~k:1 ~machines:1 ~delta:1. inst);
  (* Slot-end evaluation prices the same slot at (1 + 1)/1 = 2. *)
  check_close "slot-end value" 2.
    (Lp_bound.value ~mode:Lp_bound.Slot_end ~k:1 ~machines:1 ~delta:1. inst)

let test_lp_gamma_scales () =
  let inst = inst_of_ints [ (0, 1); (1, 2) ] in
  let v1 = Lp_bound.value ~k:2 ~machines:1 ~delta:0.5 inst in
  let v3 = Lp_bound.value ~gamma:3. ~k:2 ~machines:1 ~delta:0.5 inst in
  check_close "gamma multiplies the objective" (3. *. v1) v3

let test_lp_validation () =
  let inst = inst_of_ints [ (0, 1) ] in
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected lp validation failure")
    [
      (fun () -> ignore (Lp_bound.value ~k:0 ~machines:1 ~delta:1. inst));
      (fun () -> ignore (Lp_bound.value ~k:1 ~machines:0 ~delta:1. inst));
      (fun () -> ignore (Lp_bound.value ~k:1 ~machines:1 ~delta:0. inst));
    ]

let test_lp_empty_instance () =
  check_close "empty" 0. (Lp_bound.value ~k:2 ~machines:1 ~delta:1. (Rr_workload.Instance.of_jobs []))

(* Random small integer instances. *)
let tiny_instance_gen =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* jobs = list_repeat n (pair (int_range 0 4) (int_range 1 4)) in
    let* machines = int_range 1 2 in
    let* k = int_range 1 2 in
    return (jobs, machines, k))

let prop_lp_sandwich =
  QCheck2.Test.make ~name:"LP_lo <= LP_hi and LP_lo <= 2 OPT^k" ~count:60 tiny_instance_gen
    (fun (jobs, machines, k) ->
      let total = List.fold_left (fun a (_, p) -> a + p) 0 jobs in
      QCheck2.assume (total <= 12);
      let inst = inst_of_ints jobs in
      let lo = Lp_bound.value ~k ~machines ~delta:0.25 inst in
      let hi = Lp_bound.value ~mode:Lp_bound.Slot_end ~k ~machines ~delta:0.25 inst in
      let opt = Brute.optimal_power_sum ~k ~machines jobs in
      lo <= hi +. 1e-6 && lo /. 2. <= opt +. 1e-6)

let prop_lp_finer_delta_monotone_feasible =
  (* Halving delta refines the relaxation; both stay below the continuous
     LP, and the coarse Slot_start value never exceeds the fine Slot_end
     value. *)
  QCheck2.Test.make ~name:"coarse lower mode <= fine upper mode" ~count:40 tiny_instance_gen
    (fun (jobs, machines, k) ->
      let total = List.fold_left (fun a (_, p) -> a + p) 0 jobs in
      QCheck2.assume (total <= 12);
      let inst = inst_of_ints jobs in
      let lo_coarse = Lp_bound.value ~k ~machines ~delta:0.5 inst in
      let hi_fine = Lp_bound.value ~mode:Lp_bound.Slot_end ~k ~machines ~delta:0.125 inst in
      lo_coarse <= hi_fine +. 1e-6)

let prop_srpt_upper_bounds_opt =
  QCheck2.Test.make ~name:"brute OPT <= SRPT power sum" ~count:60 tiny_instance_gen
    (fun (jobs, machines, k) ->
      let total = List.fold_left (fun a (_, p) -> a + p) 0 jobs in
      QCheck2.assume (total <= 12);
      let inst = inst_of_ints jobs in
      let opt = Brute.optimal_power_sum ~k ~machines jobs in
      let srpt =
        Temporal_fairness.Run.power_sum
          (Temporal_fairness.Run.config ~machines ~k ())
          Rr_policies.Srpt.policy inst
      in
      opt <= srpt +. 1e-6)

(* ------------------------------------------------------------------ *)
(* Sparse windows, interval certification, cheap filter                *)
(* ------------------------------------------------------------------ *)

let prop_sparse_equals_dense =
  (* Busy-period windows are an exactness-preserving sparsification: the
     LP value over windowed arcs equals the dense build in both
     evaluation modes, not merely bounds it. *)
  QCheck2.Test.make ~name:"sparse windows = dense network" ~count:40 tiny_instance_gen
    (fun (jobs, machines, k) ->
      let total = List.fold_left (fun a (_, p) -> a + p) 0 jobs in
      QCheck2.assume (total <= 12);
      let inst = inst_of_ints jobs in
      List.for_all
        (fun (mode, delta) ->
          let sparse = Lp_bound.value ~mode ~windows:Lp_bound.Sparse ~k ~machines ~delta inst in
          let dense = Lp_bound.value ~mode ~windows:Lp_bound.Dense ~k ~machines ~delta inst in
          Float.abs (sparse -. dense) <= 1e-9 *. (1. +. Float.abs dense))
        [
          (Lp_bound.Slot_start, 0.5);
          (Lp_bound.Slot_end, 0.5);
          (Lp_bound.Slot_start, 0.25);
          (Lp_bound.Slot_end, 0.25);
        ])

let prop_interval_gap_shrinks =
  (* Slot grids nest under halving, so the Slot_start value is
     non-decreasing and the Slot_end value non-increasing along the
     refinement chain: the certified gap shrinks monotonically. *)
  QCheck2.Test.make ~name:"certified gap shrinks as delta halves" ~count:40 tiny_instance_gen
    (fun (jobs, machines, k) ->
      let total = List.fold_left (fun a (_, p) -> a + p) 0 jobs in
      QCheck2.assume (total <= 12);
      let inst = inst_of_ints jobs in
      let bracket delta =
        ( Lp_bound.value ~k ~machines ~delta inst,
          Lp_bound.value ~mode:Lp_bound.Slot_end ~k ~machines ~delta inst )
      in
      let rec chain prev_gap = function
        | [] -> true
        | delta :: rest ->
            let lo, hi = bracket delta in
            let gap = hi -. lo in
            lo <= hi +. 1e-6 && gap <= prev_gap +. 1e-6 && chain gap rest
      in
      chain Float.infinity [ 1.0; 0.5; 0.25 ])

let prop_cheap_below_lp_below_srpt =
  (* The no-LP filter must sit under the bound it short-circuits, which in
     turn certifies at most the SRPT cost it is compared against:
     cheap <= LP/2 <= OPT^k <= SRPT power sum. *)
  QCheck2.Test.make ~name:"cheap filter <= LP bound <= SRPT cost" ~count:60 tiny_instance_gen
    (fun (jobs, machines, k) ->
      let total = List.fold_left (fun a (_, p) -> a + p) 0 jobs in
      QCheck2.assume (total <= 12);
      let inst = inst_of_ints jobs in
      let cheap = Lp_bound.cheap_lower_bound ~k ~machines inst in
      let lp_half = Lp_bound.opt_power_lower_bound ~k ~machines ~delta:0.25 inst in
      let opt = Brute.optimal_power_sum ~k ~machines jobs in
      let srpt =
        Temporal_fairness.Run.power_sum
          (Temporal_fairness.Run.config ~machines ~k ())
          Rr_policies.Srpt.policy inst
      in
      cheap <= lp_half +. 1e-6 && cheap <= opt +. 1e-6 && lp_half <= opt +. 1e-6
      && opt <= srpt +. 1e-6)

let test_value_interval_converges () =
  let inst = inst_of_ints [ (0, 1); (1, 2); (2, 1) ] in
  let tol = 0.05 in
  let itv = Lp_bound.value_interval ~tol ~k:2 ~machines:1 inst in
  Alcotest.(check bool) "lo <= hi" true (itv.Lp_bound.lo <= itv.Lp_bound.hi +. 1e-9);
  Alcotest.(check bool) "met tol" true
    (itv.Lp_bound.hi -. itv.Lp_bound.lo <= tol *. itv.Lp_bound.lo +. 1e-9);
  Alcotest.(check bool) "two solves per level" true
    (itv.Lp_bound.solves mod 2 = 0 && itv.Lp_bound.solves >= 2);
  (* The reported bracket is exactly the pair of mode evaluations at the
     converged delta. *)
  check_close "lo is Slot_start at final delta" itv.Lp_bound.lo
    (Lp_bound.value ~k:2 ~machines:1 ~delta:itv.Lp_bound.delta inst);
  check_close "hi is Slot_end at final delta" itv.Lp_bound.hi
    (Lp_bound.value ~mode:Lp_bound.Slot_end ~k:2 ~machines:1 ~delta:itv.Lp_bound.delta inst)

let test_value_interval_empty () =
  let itv = Lp_bound.value_interval ~tol:0.1 ~k:2 ~machines:1 (Rr_workload.Instance.of_jobs []) in
  check_close "empty lo" 0. itv.Lp_bound.lo;
  check_close "empty hi" 0. itv.Lp_bound.hi

(* ------------------------------------------------------------------ *)
(* LP solution extraction                                              *)
(* ------------------------------------------------------------------ *)

let test_solution_single_job () =
  let inst = inst_of_ints [ (0, 2) ] in
  let sol = Lp_bound.solve ~k:1 ~machines:1 ~delta:1. inst in
  (* Cheapest placement: one unit in each of the first two slots. *)
  Alcotest.(check (float 1e-9)) "matches value" (Lp_bound.value ~k:1 ~machines:1 ~delta:1. inst) sol.value;
  Alcotest.(check (float 1e-9)) "all work scheduled" 2.
    (List.fold_left (fun a (_, w) -> a +. w) 0. sol.allocation.(0));
  Alcotest.(check (float 1e-9)) "completes at slot 2" 2. (Lp_bound.completion_profile sol ~job:0)

let prop_solution_feasible =
  QCheck2.Test.make ~name:"LP solution is release-respecting and capacity-feasible" ~count:40
    tiny_instance_gen
    (fun (jobs, machines, k) ->
      let total = List.fold_left (fun a (_, p) -> a + p) 0 jobs in
      QCheck2.assume (total <= 12);
      let inst = inst_of_ints jobs in
      let delta = 0.5 in
      let sol = Lp_bound.solve ~k ~machines ~delta inst in
      let js = Array.of_list (Rr_workload.Instance.jobs inst) in
      let slot_load = Hashtbl.create 16 in
      let ok = ref true in
      Array.iteri
        (fun ji alloc ->
          let j = js.(ji) in
          let scheduled = List.fold_left (fun a (_, w) -> a +. w) 0. alloc in
          if Float.abs (scheduled -. j.Rr_engine.Job.size) > 1e-6 then ok := false;
          List.iter
            (fun (slot_start, w) ->
              (* Work may start inside the slot but never before release. *)
              if slot_start +. delta <= j.Rr_engine.Job.arrival +. 1e-9 then ok := false;
              if w < -1e-9 then ok := false;
              let prev = Option.value ~default:0. (Hashtbl.find_opt slot_load slot_start) in
              Hashtbl.replace slot_load slot_start (prev +. w))
            alloc)
        sol.allocation;
      Hashtbl.iter
        (fun _ load -> if load > (Float.of_int machines *. delta) +. 1e-6 then ok := false)
        slot_load;
      !ok)

(* ------------------------------------------------------------------ *)
(* Golden values                                                       *)
(* ------------------------------------------------------------------ *)

(* [Lp_bound.value] as exact hex floats on a fixed grid: batches of 12
   Exp(1) jobs every 25 time units (each batch its own busy period, like
   the benchmark's certify family) and Poisson arrivals at load 0.9 (long
   busy periods), three seeds, m in {1, 2}, k in {1, 2}, both evaluation
   modes, slot widths 1 and 0.5.  Recorded with the solver that ran one
   Dijkstra search per augmenting path; batching the paths of a search
   must reproduce every one bit for bit. *)
let golden_instance shape ~seed ~machines =
  let rng = Rr_util.Prng.create ~seed in
  let sizes = Rr_workload.Distribution.Exponential { mean = 1. } in
  match shape with
  | "batched" ->
      Rr_workload.Instance.generate ~rng
        ~arrivals:(Rr_workload.Arrivals.Batched { batch = 12; interval = 25. })
        ~sizes ~n:192 ()
  | _ -> Rr_workload.Instance.generate_load ~rng ~sizes ~load:0.9 ~machines ~n:120 ()

let golden =
  [
    ("batched/31/m1/k1/start/1", "0x1.92f7c8149a068p+9");
    ("batched/31/m1/k1/start/0.5", "0x1.a65447cc31024p+9");
    ("batched/31/m1/k1/end/1", "0x1.f2f7c8149a068p+9");
    ("batched/31/m1/k1/end/0.5", "0x1.d65447cc31024p+9");
    ("batched/31/m1/k2/start/1", "0x1.330d27bd58d64p+12");
    ("batched/31/m1/k2/start/0.5", "0x1.45d53928b88bep+12");
    ("batched/31/m1/k2/end/1", "0x1.89c2dec7becd2p+12");
    ("batched/31/m1/k2/end/0.5", "0x1.709ba4a4de66dp+12");
    ("batched/31/m2/k1/start/1", "0x1.d8b25ef780ce5p+8");
    ("batched/31/m2/k1/start/0.5", "0x1.fb18b3ff9c317p+8");
    ("batched/31/m2/k1/end/1", "0x1.4c592f7bc0672p+9");
    ("batched/31/m2/k1/end/0.5", "0x1.2d8c59ffce18bp+9");
    ("batched/31/m2/k2/start/1", "0x1.6368ef73ac9e4p+10");
    ("batched/31/m2/k2/start/0.5", "0x1.851ac1a66bc7p+10");
    ("batched/31/m2/k2/end/1", "0x1.0bd09982356d4p+11");
    ("batched/31/m2/k2/end/0.5", "0x1.dbd078b0d1bdfp+10");
    ("batched/32/m1/k1/start/1", "0x1.42d92c871b84ap+9");
    ("batched/32/m1/k1/start/0.5", "0x1.55474ead4066ap+9");
    ("batched/32/m1/k1/end/1", "0x1.a2d92c871b84ap+9");
    ("batched/32/m1/k1/end/0.5", "0x1.85474ead4066ap+9");
    ("batched/32/m1/k2/start/1", "0x1.acc40bde1475bp+11");
    ("batched/32/m1/k2/start/0.5", "0x1.caa5d63f9ec2bp+11");
    ("batched/32/m1/k2/end/1", "0x1.1dd30cad9c6dfp+12");
    ("batched/32/m1/k2/end/0.5", "0x1.085932c3dd172p+12");
    ("batched/32/m2/k1/start/1", "0x1.77bcaf87782cp+8");
    ("batched/32/m2/k1/start/0.5", "0x1.97ee3e13ee3cdp+8");
    ("batched/32/m2/k1/end/1", "0x1.1bde57c3bc16p+9");
    ("batched/32/m2/k1/end/0.5", "0x1.f7ee3e13ee3cep+8");
    ("batched/32/m2/k2/start/1", "0x1.e38bc12c760f8p+9");
    ("batched/32/m2/k2/start/0.5", "0x1.0c5d773b8fc95p+10");
    ("batched/32/m2/k2/end/1", "0x1.888f26cd24658p+10");
    ("batched/32/m2/k2/end/0.5", "0x1.53ce7dfa21fc6p+10");
    ("batched/33/m1/k1/start/1", "0x1.788e4de026c03p+9");
    ("batched/33/m1/k1/start/0.5", "0x1.8c3e2d833d41dp+9");
    ("batched/33/m1/k1/end/1", "0x1.d88e4de026c03p+9");
    ("batched/33/m1/k1/end/0.5", "0x1.bc3e2d833d41dp+9");
    ("batched/33/m1/k2/start/1", "0x1.0e18989813756p+12");
    ("batched/33/m1/k2/start/0.5", "0x1.1f9fc0dfe623fp+12");
    ("batched/33/m1/k2/end/1", "0x1.5f7f30f8bcca4p+12");
    ("batched/33/m1/k2/end/0.5", "0x1.47c909049d9e9p+12");
    ("batched/33/m2/k1/start/1", "0x1.b7e814d7c439ep+8");
    ("batched/33/m2/k1/start/0.5", "0x1.db823a3da82cep+8");
    ("batched/33/m2/k1/end/1", "0x1.3bf40a6be21cfp+9");
    ("batched/33/m2/k1/end/0.5", "0x1.1dc11d1ed4167p+9");
    ("batched/33/m2/k2/start/1", "0x1.3be24955ee893p+10");
    ("batched/33/m2/k2/start/0.5", "0x1.5afd7cf50fef7p+10");
    ("batched/33/m2/k2/end/1", "0x1.e4e267644f398p+10");
    ("batched/33/m2/k2/end/0.5", "0x1.ac641555b9446p+10");
    ("poisson/31/m1/k1/start/1", "0x1.c112354bdc9f6p+7");
    ("poisson/31/m1/k1/start/0.5", "0x1.dfdfc01693ff4p+7");
    ("poisson/31/m1/k1/end/1", "0x1.3b724e385c2cap+8");
    ("poisson/31/m1/k1/end/0.5", "0x1.213b6961dc583p+8");
    ("poisson/31/m1/k2/start/1", "0x1.d125dce948b07p+9");
    ("poisson/31/m1/k2/start/0.5", "0x1.f3cf7d6cdbf73p+9");
    ("poisson/31/m1/k2/end/1", "0x1.3dd699affc0fp+10");
    ("poisson/31/m1/k2/end/0.5", "0x1.2462f6f621fcbp+10");
    ("poisson/31/m2/k1/start/1", "0x1.3cefa494ced02p+7");
    ("poisson/31/m2/k1/start/0.5", "0x1.5780873e8af5fp+7");
    ("poisson/31/m2/k1/end/1", "0x1.dca2f15a9eef2p+7");
    ("poisson/31/m2/k1/end/0.5", "0x1.b269bad0f8d2ep+7");
    ("poisson/31/m2/k2/start/1", "0x1.68efdcbfc3b54p+8");
    ("poisson/31/m2/k2/start/0.5", "0x1.96194796a2d76p+8");
    ("poisson/31/m2/k2/end/1", "0x1.06b62676da05ep+9");
    ("poisson/31/m2/k2/end/0.5", "0x1.eb5cf2d1fa8e2p+8");
    ("poisson/32/m1/k1/start/1", "0x1.215eda0b8caefp+8");
    ("poisson/32/m1/k1/start/0.5", "0x1.309892bc570b1p+8");
    ("poisson/32/m1/k1/end/1", "0x1.8238db20078a6p+8");
    ("poisson/32/m1/k1/end/0.5", "0x1.637199883df04p+8");
    ("poisson/32/m1/k2/start/1", "0x1.af714daa781cfp+10");
    ("poisson/32/m1/k2/start/0.5", "0x1.cd8b6f496eeabp+10");
    ("poisson/32/m1/k2/end/1", "0x1.1e3f39c8b961ap+11");
    ("poisson/32/m1/k2/end/0.5", "0x1.09b3e18d5307bp+11");
    ("poisson/32/m2/k1/start/1", "0x1.8185bc6e06c12p+7");
    ("poisson/32/m2/k1/start/0.5", "0x1.972eafd90dddp+7");
    ("poisson/32/m2/k1/end/1", "0x1.197ec2e865367p+8");
    ("poisson/32/m2/k1/end/0.5", "0x1.f808b0ed88b88p+7");
    ("poisson/32/m2/k2/start/1", "0x1.0cae77c74bb22p+9");
    ("poisson/32/m2/k2/start/0.5", "0x1.264adceff6792p+9");
    ("poisson/32/m2/k2/end/1", "0x1.9c461706ccdd5p+9");
    ("poisson/32/m2/k2/end/0.5", "0x1.6cd16fe373cc6p+9");
    ("poisson/33/m1/k1/start/1", "0x1.59882a4fe9dccp+7");
    ("poisson/33/m1/k1/start/0.5", "0x1.753f7d49aea1bp+7");
    ("poisson/33/m1/k1/end/1", "0x1.088212187a1b9p+8");
    ("poisson/33/m1/k1/end/0.5", "0x1.d905f3136a1d3p+7");
    ("poisson/33/m1/k2/start/1", "0x1.9b8963e4989fcp+8");
    ("poisson/33/m1/k2/start/0.5", "0x1.d994265a80f41p+8");
    ("poisson/33/m1/k2/end/1", "0x1.4addad5d42588p+9");
    ("poisson/33/m1/k2/end/0.5", "0x1.2a94650c34a59p+9");
    ("poisson/33/m2/k1/start/1", "0x1.06bfbe4c8a04ep+7");
    ("poisson/33/m2/k1/start/0.5", "0x1.16ca28fcd327ep+7");
    ("poisson/33/m2/k1/end/1", "0x1.a99ac03dcff9bp+7");
    ("poisson/33/m2/k1/end/0.5", "0x1.728825ed58551p+7");
    ("poisson/33/m2/k2/start/1", "0x1.ba70905405897p+7");
    ("poisson/33/m2/k2/start/0.5", "0x1.db35e437ba3afp+7");
    ("poisson/33/m2/k2/end/1", "0x1.619ff4dd7675p+8");
    ("poisson/33/m2/k2/end/0.5", "0x1.2c276fd15821dp+8");
  ]

let test_golden_values () =
  List.iter
    (fun shape ->
      List.iter
        (fun seed ->
          List.iter
            (fun machines ->
              let inst = golden_instance shape ~seed ~machines in
              List.iter
                (fun k ->
                  List.iter
                    (fun (mname, mode) ->
                      List.iter
                        (fun delta ->
                          let key =
                            Printf.sprintf "%s/%d/m%d/k%d/%s/%g" shape seed machines k mname delta
                          in
                          Alcotest.(check string)
                            key (List.assoc key golden)
                            (Printf.sprintf "%h" (Lp_bound.value ~mode ~k ~machines ~delta inst)))
                        [ 1.; 0.5 ])
                    [ ("start", Lp_bound.Slot_start); ("end", Lp_bound.Slot_end) ])
                [ 1; 2 ])
            [ 1; 2 ])
        [ 31; 32; 33 ])
    [ "batched"; "poisson" ]

(* Networks are per solve: two LPs solved at once on two domains, the
   way [Bound] solves a level's two modes, give the sequential values
   bit for bit. *)
let test_pool_matches_sequential () =
  let reqs =
    List.concat_map
      (fun seed ->
        List.map
          (fun mode -> (golden_instance "poisson" ~seed ~machines:1, mode))
          [ Lp_bound.Slot_start; Lp_bound.Slot_end ])
      [ 31; 32; 33 ]
  in
  let solve (inst, mode) = Lp_bound.value ~mode ~k:2 ~machines:1 ~delta:0.5 inst in
  let sequential = List.map solve reqs in
  let pooled =
    Temporal_fairness.Pool.with_pool ~domains:2 (fun pool ->
        Temporal_fairness.Pool.map ~chunk:(`Fixed 1) pool solve reqs)
  in
  List.iter2
    (fun s p ->
      Alcotest.(check string) "pooled = sequential" (Printf.sprintf "%h" s) (Printf.sprintf "%h" p))
    sequential pooled

(* ------------------------------------------------------------------ *)
(* One recycled network per domain                                     *)
(* ------------------------------------------------------------------ *)

(* Three LPs of different sizes, each with its value recorded before the
   network was recycled: a golden-grid batch (12-job components), a
   Poisson instance at load 0.9 whose long busy periods need a larger
   network, and a small batched one at slot-end costs. *)
let recycle_cases =
  let sizes = Rr_workload.Distribution.Exponential { mean = 1. } in
  [
    ( "golden",
      (fun () ->
        Lp_bound.value ~mode:Lp_bound.Slot_start ~k:2 ~machines:1 ~delta:0.5
          (golden_instance "batched" ~seed:31 ~machines:1)),
      List.assoc "batched/31/m1/k2/start/0.5" golden );
    ( "larger",
      (fun () ->
        Lp_bound.value ~mode:Lp_bound.Slot_start ~k:2 ~machines:1 ~delta:0.5
          (Rr_workload.Instance.generate_load ~rng:(Rr_util.Prng.create ~seed:7) ~sizes
             ~load:0.9 ~machines:1 ~n:250 ())),
      "0x1.ec01f7019bd7cp+14" );
    ( "smaller",
      (fun () ->
        Lp_bound.value ~mode:Lp_bound.Slot_end ~k:2 ~machines:1 ~delta:0.5
          (Rr_workload.Instance.generate ~rng:(Rr_util.Prng.create ~seed:3)
             ~arrivals:(Rr_workload.Arrivals.Batched { batch = 5; interval = 10. })
             ~sizes ~n:30 ())),
      "0x1.37f6ba9932778p+7" );
  ]

let recycle_sequence = [ "golden"; "larger"; "smaller"; "golden" ]

let check_case name value =
  let _, _, want = List.find (fun (n, _, _) -> n = name) recycle_cases in
  Alcotest.(check string) name want (Printf.sprintf "%h" value)

let solve_case name =
  let _, f, _ = List.find (fun (n, _, _) -> n = name) recycle_cases in
  f ()

(* Growing, shrinking and growing back on one domain's network leaves
   nothing behind, and neither do two domains solving the same sequence
   at once, forwards or backwards. *)
let test_recycling_leaks_nothing () =
  List.iter (fun name -> check_case name (solve_case name)) recycle_sequence;
  List.iter
    (fun order ->
      let pooled =
        Temporal_fairness.Pool.with_pool ~domains:2 (fun pool ->
            Temporal_fairness.Pool.map ~chunk:(`Fixed 1) pool solve_case order)
      in
      List.iter2 check_case order pooled)
    [ recycle_sequence; List.rev recycle_sequence ]

(* A solve started from inside another solve's [on_arc] finds the
   domain's network lent out and builds its own: both answers are the
   ones plain calls give. *)
let test_reentrant_solve () =
  let outer = golden_instance "poisson" ~seed:32 ~machines:1 in
  let inner = golden_instance "batched" ~seed:33 ~machines:1 in
  let value_of inst = Lp_bound.value ~k:2 ~machines:1 ~delta:0.5 inst in
  let plain_outer = value_of outer in
  let inner_values = ref [] in
  let arcs = ref 0 in
  let sol =
    Lp_bound.solve ~k:2 ~machines:1 ~delta:0.5
      ~on_arc:(fun _ _ _ ->
        if !arcs mod 500 = 0 then inner_values := value_of inner :: !inner_values;
        incr arcs)
      outer
  in
  let hex = Printf.sprintf "%h" in
  Alcotest.(check string) "outer = plain call" (hex plain_outer) (hex sol.Lp_bound.value);
  Alcotest.(check bool) "inner solves ran" true (List.length !inner_values > 1);
  List.iter
    (fun v -> Alcotest.(check string) "inner = plain call" (hex (value_of inner)) (hex v))
    !inner_values

(* A wider net than the golden grid, recorded as one digest before the
   network was recycled: 1,080 values over m in {1, 2, 4}, k in {1, 2, 3},
   both modes, delta in {1, 0.5, 0.25} and both windows, on batches of 10
   every 15 and Poisson arrivals at load 0.9 (n = 40, seeds 41-45). *)
let test_wider_grid_digest () =
  let instance shape ~seed ~machines =
    let rng = Rr_util.Prng.create ~seed in
    let sizes = Rr_workload.Distribution.Exponential { mean = 1. } in
    match shape with
    | `Batched ->
        Rr_workload.Instance.generate ~rng
          ~arrivals:(Rr_workload.Arrivals.Batched { batch = 10; interval = 15. })
          ~sizes ~n:40 ()
    | `Poisson -> Rr_workload.Instance.generate_load ~rng ~sizes ~load:0.9 ~machines ~n:40 ()
  in
  let buf = Buffer.create 32768 in
  let count = ref 0 in
  List.iter
    (fun shape ->
      List.iter
        (fun seed ->
          List.iter
            (fun machines ->
              let inst = instance shape ~seed ~machines in
              List.iter
                (fun k ->
                  List.iter
                    (fun mode ->
                      List.iter
                        (fun delta ->
                          List.iter
                            (fun windows ->
                              incr count;
                              Printf.bprintf buf "%h\n"
                                (Lp_bound.value ~mode ~windows ~k ~machines ~delta inst))
                            [ Lp_bound.Sparse; Lp_bound.Dense ])
                        [ 1.; 0.5; 0.25 ])
                    [ Lp_bound.Slot_start; Lp_bound.Slot_end ])
                [ 1; 2; 3 ])
            [ 1; 2; 4 ])
        [ 41; 42; 43; 44; 45 ])
    [ `Batched; `Poisson ];
  Alcotest.(check int) "values" 1080 !count;
  Alcotest.(check string) "digest of every %h" "8e9e40a5fc6193fd2b21018e1cc848f4"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_lp_sandwich;
      prop_lp_finer_delta_monotone_feasible;
      prop_srpt_upper_bounds_opt;
      prop_solution_feasible;
      prop_sparse_equals_dense;
      prop_interval_gap_shrinks;
      prop_cheap_below_lp_below_srpt;
    ]

let () =
  Alcotest.run "rr_lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "basic le" `Quick test_simplex_basic_le;
          Alcotest.test_case "ge and eq" `Quick test_simplex_ge_eq;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "validation" `Quick test_simplex_validation;
        ] );
      ( "brute",
        [
          Alcotest.test_case "single job" `Quick test_brute_single_job;
          Alcotest.test_case "two jobs" `Quick test_brute_two_jobs_srpt_order;
          Alcotest.test_case "two machines" `Quick test_brute_uses_both_machines;
          Alcotest.test_case "release times" `Quick test_brute_respects_release;
          Alcotest.test_case "validation" `Quick test_brute_validation;
        ] );
      ( "lp bound",
        [
          Alcotest.test_case "single job value" `Quick test_lp_single_job_value;
          Alcotest.test_case "gamma scales" `Quick test_lp_gamma_scales;
          Alcotest.test_case "validation" `Quick test_lp_validation;
          Alcotest.test_case "empty" `Quick test_lp_empty_instance;
          Alcotest.test_case "solution extraction" `Quick test_solution_single_job;
          Alcotest.test_case "interval converges" `Quick test_value_interval_converges;
          Alcotest.test_case "interval empty" `Quick test_value_interval_empty;
        ] );
      ( "golden",
        [
          Alcotest.test_case "values on a fixed grid" `Quick test_golden_values;
          Alcotest.test_case "two domains = sequential" `Quick test_pool_matches_sequential;
          Alcotest.test_case "a wider grid, one digest" `Quick test_wider_grid_digest;
        ] );
      ( "recycling",
        [
          Alcotest.test_case "recycling leaks nothing" `Quick test_recycling_leaks_nothing;
          Alcotest.test_case "a re-entrant solve" `Quick test_reentrant_solve;
        ] );
      ("properties", qsuite);
    ]
