(* Tests for the event-driven simulator: hand-computed schedules,
   conservation laws, error paths, and exactness properties. *)

open Rr_engine

let rr = Rr_policies.Round_robin.policy
let srpt = Rr_policies.Srpt.policy

let job ~id ~arrival ~size = Job.make ~id ~arrival ~size

let check_close ?(tol = 1e-9) msg a b = Alcotest.(check (float tol)) msg a b

(* ------------------------------------------------------------------ *)
(* Job validation                                                      *)
(* ------------------------------------------------------------------ *)

let test_job_validation () =
  List.iter
    (fun (id, arrival, size) ->
      match Job.make ~id ~arrival ~size with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "expected rejection of (%d, %g, %g)" id arrival size)
    [ (-1, 0., 1.); (0, -1., 1.); (0, 0., 0.); (0, 0., -2.); (0, Float.nan, 1.); (0, 0., Float.nan) ]

let test_job_release_order () =
  let a = job ~id:1 ~arrival:0. ~size:1. and b = job ~id:0 ~arrival:0. ~size:1. in
  Alcotest.(check bool) "id breaks ties" true (Job.compare_release b a < 0);
  let c = job ~id:5 ~arrival:1. ~size:1. in
  Alcotest.(check bool) "arrival first" true (Job.compare_release a c < 0)

(* ------------------------------------------------------------------ *)
(* Hand-computed schedules                                             *)
(* ------------------------------------------------------------------ *)

let test_single_job () =
  let res = Simulator.run ~machines:1 ~policy:rr [ job ~id:0 ~arrival:2. ~size:3. ] in
  check_close "completion" 5. res.completions.(0);
  check_close "flow" 3. (Simulator.flows res).(0)

let test_single_job_speed () =
  let res = Simulator.run ~speed:2. ~machines:1 ~policy:rr [ job ~id:0 ~arrival:0. ~size:3. ] in
  check_close "completion at double speed" 1.5 res.completions.(0)

(* Two unit jobs released together on one machine under RR: both run at
   rate 1/2 and complete together at t = 2. *)
let test_rr_two_jobs_share () =
  let res =
    Simulator.run ~machines:1 ~policy:rr
      [ job ~id:0 ~arrival:0. ~size:1.; job ~id:1 ~arrival:0. ~size:1. ]
  in
  check_close "job 0" 2. res.completions.(0);
  check_close "job 1" 2. res.completions.(1)

(* RR with sizes 1 and 2: both share until the small job finishes at t = 2;
   the big one then runs alone, finishing at 2 + 1 = 3. *)
let test_rr_unequal_sizes () =
  let res =
    Simulator.run ~machines:1 ~policy:rr
      [ job ~id:0 ~arrival:0. ~size:1.; job ~id:1 ~arrival:0. ~size:2. ]
  in
  check_close "small" 2. res.completions.(0);
  check_close "large" 3. res.completions.(1)

(* Staggered arrival: job 1 (size 2) alone on [0,1), then shares with job 2
   (size 1): at t=1 remaining are 1 and 1, each at rate 1/2 -> both done at
   t = 3. *)
let test_rr_staggered () =
  let res =
    Simulator.run ~machines:1 ~policy:rr
      [ job ~id:0 ~arrival:0. ~size:2.; job ~id:1 ~arrival:1. ~size:1. ]
  in
  check_close "first" 3. res.completions.(0);
  check_close "second" 3. res.completions.(1)

(* SRPT runs the small job to completion first. *)
let test_srpt_order () =
  let res =
    Simulator.run ~machines:1 ~policy:srpt
      [ job ~id:0 ~arrival:0. ~size:3.; job ~id:1 ~arrival:0. ~size:1. ]
  in
  check_close "small first" 1. res.completions.(1);
  check_close "large second" 4. res.completions.(0)

(* SRPT preempts: big job starts, small arrival takes over. *)
let test_srpt_preempts () =
  let res =
    Simulator.run ~machines:1 ~policy:srpt
      [ job ~id:0 ~arrival:0. ~size:5.; job ~id:1 ~arrival:1. ~size:1. ]
  in
  check_close "small served immediately" 2. res.completions.(1);
  check_close "big resumes" 6. res.completions.(0)

(* With as many machines as jobs, RR gives everyone a full machine. *)
let test_rr_underloaded_machines () =
  let res =
    Simulator.run ~machines:3 ~policy:rr
      [
        job ~id:0 ~arrival:0. ~size:1.;
        job ~id:1 ~arrival:0. ~size:2.;
        job ~id:2 ~arrival:0. ~size:3.;
      ]
  in
  check_close "j0" 1. res.completions.(0);
  check_close "j1" 2. res.completions.(1);
  check_close "j2" 3. res.completions.(2)

(* Four unit jobs on two machines under RR: each gets rate 1/2, all finish
   at 2; after two finish... all four identical so all at t=2. *)
let test_rr_multimachine_overload () =
  let jobs = List.init 4 (fun id -> job ~id ~arrival:0. ~size:1.) in
  let res = Simulator.run ~machines:2 ~policy:rr jobs in
  Array.iter (fun c -> check_close "all equal" 2. c) res.completions

(* A completion coinciding exactly with an arrival: job 0 finishes at t = 1
   just as job 1 arrives, so they never share. *)
let test_simultaneous_completion_and_arrival () =
  let res =
    Simulator.run ~machines:1 ~policy:rr
      [ job ~id:0 ~arrival:0. ~size:1.; job ~id:1 ~arrival:1. ~size:1. ]
  in
  check_close "first exactly at the boundary" 1. res.completions.(0);
  check_close "second never shares" 2. res.completions.(1)

(* Many jobs arriving at the same instant are all admitted before the
   policy runs. *)
let test_batch_admission () =
  let jobs = List.init 5 (fun id -> job ~id ~arrival:3. ~size:1.) in
  let res = Simulator.run ~record_trace:true ~machines:1 ~policy:rr jobs in
  Array.iter (fun c -> check_close "all share from t=3" 8. c) res.completions;
  match res.trace with
  | (s : Trace.segment) :: _ -> Alcotest.(check int) "first segment sees all" 5 (Trace.num_alive s)
  | [] -> Alcotest.fail "expected a trace"

(* Idle gap between jobs. *)
let test_idle_period () =
  let res =
    Simulator.run ~machines:1 ~policy:rr
      [ job ~id:0 ~arrival:0. ~size:1.; job ~id:1 ~arrival:10. ~size:1. ]
  in
  check_close "first" 1. res.completions.(0);
  check_close "second after idle" 11. res.completions.(1)

(* ------------------------------------------------------------------ *)
(* Error paths                                                         *)
(* ------------------------------------------------------------------ *)

let test_bad_ids_rejected () =
  List.iter
    (fun jobs ->
      match Simulator.run ~machines:1 ~policy:rr jobs with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected id validation failure")
    [
      [ job ~id:1 ~arrival:0. ~size:1. ];
      [ job ~id:0 ~arrival:0. ~size:1.; job ~id:0 ~arrival:1. ~size:1. ];
    ]

let test_machines_positive () =
  match Simulator.run ~machines:0 ~policy:rr [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected machines validation failure"

let test_speed_positive () =
  match Simulator.run ~speed:0. ~machines:1 ~policy:rr [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected speed validation failure"

let starving_policy =
  {
    Policy.name = "starver";
    clairvoyant = false;
    klass = None;
    allocate =
      (fun ~now:_ ~machines:_ ~speed:_ views ->
        { Policy.rates = Array.make (Array.length views) 0.; horizon = None });
  }

let test_starvation_detected () =
  match
    Simulator.run ~machines:1 ~policy:starving_policy [ job ~id:0 ~arrival:0. ~size:1. ]
  with
  | exception Simulator.Invalid_allocation _ -> ()
  | _ -> Alcotest.fail "expected starvation detection"

let overallocating_policy =
  {
    Policy.name = "greedy";
    clairvoyant = false;
    klass = None;
    allocate =
      (fun ~now:_ ~machines:_ ~speed:_ views ->
        { Policy.rates = Array.make (Array.length views) 1.; horizon = None });
  }

let test_overallocation_detected () =
  let jobs = List.init 3 (fun id -> job ~id ~arrival:0. ~size:1.) in
  match Simulator.run ~machines:1 ~policy:overallocating_policy jobs with
  | exception Simulator.Invalid_allocation _ -> ()
  | _ -> Alcotest.fail "expected over-allocation detection"

let bad_rate_policy rate =
  {
    Policy.name = "bad-rate";
    clairvoyant = false;
    klass = None;
    allocate =
      (fun ~now:_ ~machines:_ ~speed:_ views ->
        { Policy.rates = Array.make (Array.length views) rate; horizon = None });
  }

let test_bad_rates_detected () =
  List.iter
    (fun rate ->
      match
        Simulator.run ~machines:1 ~policy:(bad_rate_policy rate)
          [ job ~id:0 ~arrival:0. ~size:1. ]
      with
      | exception Simulator.Invalid_allocation _ -> ()
      | _ -> Alcotest.failf "expected rejection of rate %g" rate)
    [ -0.5; 1.5; Float.nan; Float.infinity ]

let stale_horizon_policy =
  {
    Policy.name = "stale-horizon";
    clairvoyant = false;
    klass = None;
    allocate =
      (fun ~now ~machines:_ ~speed:_ views ->
        { Policy.rates = Array.make (Array.length views) 1.; horizon = Some now });
  }

let test_stale_horizon_detected () =
  match
    Simulator.run ~machines:1 ~policy:stale_horizon_policy [ job ~id:0 ~arrival:0. ~size:1. ]
  with
  | exception Simulator.Invalid_allocation _ -> ()
  | _ -> Alcotest.fail "expected stale-horizon detection"

let test_max_events () =
  let jobs = List.init 10 (fun id -> job ~id ~arrival:(Float.of_int id) ~size:1.) in
  (match Simulator.run ~max_events:2 ~machines:1 ~policy:rr jobs with
  | exception Simulator.Event_limit_exceeded { limit = 2; now } ->
      Alcotest.(check bool) "progress recorded" true (now >= 0.)
  | _ -> Alcotest.fail "expected max_events to trip");
  (* the equal-share engine enforces the same budget *)
  match Simulator.run_class ~max_events:2 ~machines:1 Rr_engine.Policy_class.Equal_share jobs with
  | exception Simulator.Event_limit_exceeded { limit = 2; _ } -> ()
  | _ -> Alcotest.fail "expected max_events to trip in run_equal_share"

(* ------------------------------------------------------------------ *)
(* Trace invariants                                                    *)
(* ------------------------------------------------------------------ *)

let test_trace_recorded_only_on_request () =
  let jobs = [ job ~id:0 ~arrival:0. ~size:1. ] in
  let without = Simulator.run ~machines:1 ~policy:rr jobs in
  Alcotest.(check int) "no trace" 0 (List.length without.trace);
  let with_trace = Simulator.run ~record_trace:true ~machines:1 ~policy:rr jobs in
  Alcotest.(check bool) "trace present" true (List.length with_trace.trace > 0)

let test_trace_work_conservation () =
  let jobs =
    [
      job ~id:0 ~arrival:0. ~size:2.;
      job ~id:1 ~arrival:0.5 ~size:1.;
      job ~id:2 ~arrival:3. ~size:0.75;
    ]
  in
  let res = Simulator.run ~record_trace:true ~speed:1.5 ~machines:1 ~policy:rr jobs in
  check_close ~tol:1e-6 "trace work equals total size" 3.75
    (Trace.total_work ~speed:1.5 res.trace)

let test_trace_segments_ordered () =
  let jobs = List.init 5 (fun id -> job ~id ~arrival:(Float.of_int id *. 0.3) ~size:1.) in
  let res = Simulator.run ~record_trace:true ~machines:1 ~policy:rr jobs in
  let rec check = function
    | (a : Trace.segment) :: (b : Trace.segment) :: rest ->
        Alcotest.(check bool) "ordered" true (a.t1 <= b.t0 +. 1e-12);
        Alcotest.(check bool) "positive duration" true (a.t1 > a.t0);
        check (b :: rest)
    | _ -> ()
  in
  check res.trace

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let instance_gen =
  QCheck2.Gen.(
    list_size (int_range 1 25)
      (pair (float_range 0. 20.) (float_range 0.1 5.)))

let jobs_of_pairs pairs =
  let sorted = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) pairs in
  List.mapi (fun id (arrival, size) -> job ~id ~arrival ~size) sorted

let prop_flows_at_least_size_over_speed speed policy =
  QCheck2.Test.make
    ~name:(Printf.sprintf "flow >= size/speed (%s @ %g)" policy.Policy.name speed)
    ~count:100 instance_gen
    (fun pairs ->
      let jobs = jobs_of_pairs pairs in
      let res = Simulator.run ~speed ~machines:1 ~policy jobs in
      let flows = Simulator.flows res in
      Array.for_all Fun.id
        (Array.mapi
           (fun i f -> f >= (res.jobs.(i).Job.size /. speed) -. 1e-6)
           flows))

let prop_work_conservation =
  QCheck2.Test.make ~name:"trace work conservation (RR, m=2)" ~count:100 instance_gen
    (fun pairs ->
      let jobs = jobs_of_pairs pairs in
      let total = List.fold_left (fun acc (j : Job.t) -> acc +. j.size) 0. jobs in
      let res = Simulator.run ~record_trace:true ~machines:2 ~policy:rr jobs in
      Float.abs (Trace.total_work ~speed:1. res.trace -. total) <= 1e-6 *. (1. +. total))

let prop_all_complete =
  QCheck2.Test.make ~name:"every job completes after its arrival" ~count:100 instance_gen
    (fun pairs ->
      let jobs = jobs_of_pairs pairs in
      let res = Simulator.run ~machines:1 ~policy:srpt jobs in
      Array.for_all Fun.id
        (Array.mapi
           (fun i c -> Float.is_finite c && c > res.jobs.(i).Job.arrival)
           res.completions))

let prop_speed_helps_rr =
  QCheck2.Test.make ~name:"doubling RR's speed never increases total flow" ~count:100
    instance_gen
    (fun pairs ->
      let jobs = jobs_of_pairs pairs in
      let f1 = Simulator.total_flow (Simulator.run ~speed:1. ~machines:1 ~policy:rr jobs) in
      let f2 = Simulator.total_flow (Simulator.run ~speed:2. ~machines:1 ~policy:rr jobs) in
      f2 <= f1 +. 1e-6)

let prop_scale_invariance =
  (* Scheduling is scale-free: multiplying every arrival and size by c
     multiplies every completion time by c exactly.  A strong end-to-end
     check of the analytic clock advance. *)
  QCheck2.Test.make ~name:"flows scale linearly with the instance" ~count:100
    QCheck2.Gen.(pair (float_range 0.1 50.) instance_gen)
    (fun (c, pairs) ->
      let jobs = jobs_of_pairs pairs in
      let scaled =
        List.map
          (fun (j : Job.t) -> Job.make ~id:j.id ~arrival:(c *. j.arrival) ~size:(c *. j.size))
          jobs
      in
      let base = Simulator.flows (Simulator.run ~machines:2 ~policy:rr jobs) in
      let big = Simulator.flows (Simulator.run ~machines:2 ~policy:rr scaled) in
      Array.for_all Fun.id
        (Array.map2
           (fun f g -> Rr_util.Floatx.approx_equal ~rtol:1e-6 ~atol:1e-9 (c *. f) g)
           base big))

let prop_rr_rates_equal_in_trace =
  QCheck2.Test.make ~name:"RR allocates equal rates in every segment" ~count:100 instance_gen
    (fun pairs ->
      let jobs = jobs_of_pairs pairs in
      let res = Simulator.run ~record_trace:true ~machines:3 ~policy:rr jobs in
      List.for_all
        (fun (s : Trace.segment) ->
          let rates = Array.map (fun (e : Trace.entry) -> e.rate) s.alive in
          Array.for_all (fun r -> Float.abs (r -. rates.(0)) < 1e-12) rates)
        res.trace)

(* ------------------------------------------------------------------ *)
(* McNaughton machine assignment                                       *)
(* ------------------------------------------------------------------ *)

(* Two unit jobs sharing one machine at rate 1/2 over [0,2): the wrap-around
   rule serialises them inside each segment. *)
let test_assignment_serialises_shares () =
  let jobs = [ job ~id:0 ~arrival:0. ~size:1.; job ~id:1 ~arrival:0. ~size:1. ] in
  let res = Simulator.run ~record_trace:true ~machines:1 ~policy:rr jobs in
  let pieces = Assignment.of_trace ~machines:1 res.trace in
  (match Assignment.validate ~machines:1 pieces with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_close ~tol:1e-9 "job 0 executes its size" 1. (Assignment.work_of_job ~job:0 pieces);
  check_close ~tol:1e-9 "job 1 executes its size" 1. (Assignment.work_of_job ~job:1 pieces)

let test_assignment_gantt_renders () =
  let jobs = [ job ~id:0 ~arrival:0. ~size:1.; job ~id:1 ~arrival:0. ~size:2. ] in
  let res = Simulator.run ~record_trace:true ~machines:2 ~policy:rr jobs in
  let pieces = Assignment.of_trace ~machines:2 res.trace in
  let g = Assignment.render_gantt ~width:40 ~machines:2 pieces in
  Alcotest.(check bool) "has machine rows" true
    (String.split_on_char '\n' g |> List.exists (fun l -> String.length l > 3 && String.sub l 0 2 = "m0"));
  Alcotest.(check string) "empty schedule" "(empty schedule)\n"
    (Assignment.render_gantt ~machines:1 [])

let test_assignment_validate_catches_overlap () =
  let bad =
    [
      { Assignment.job = 0; machine = 0; t0 = 0.; t1 = 1. };
      { Assignment.job = 1; machine = 0; t0 = 0.5; t1 = 1.5 };
    ]
  in
  (match Assignment.validate ~machines:1 bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected machine-overlap detection");
  let bad2 =
    [
      { Assignment.job = 0; machine = 0; t0 = 0.; t1 = 1. };
      { Assignment.job = 0; machine = 1; t0 = 0.5; t1 = 1.5 };
    ]
  in
  match Assignment.validate ~machines:2 bad2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected job-self-overlap detection"

let prop_assignment_feasible =
  QCheck2.Test.make
    ~name:"McNaughton assignment of any RR trace is feasible and work-preserving" ~count:60
    QCheck2.Gen.(
      pair (int_range 1 3)
        (list_size (int_range 1 15) (pair (float_range 0. 10.) (float_range 0.2 3.))))
    (fun (machines, pairs) ->
      let jobs = jobs_of_pairs pairs in
      let res = Simulator.run ~record_trace:true ~speed:1.5 ~machines ~policy:rr jobs in
      let pieces = Assignment.of_trace ~machines res.trace in
      Assignment.validate ~machines pieces = Ok ()
      && List.for_all
           (fun (j : Job.t) ->
             Rr_util.Floatx.approx_equal ~rtol:1e-6 ~atol:1e-6
               (Assignment.work_of_job ~job:j.id pieces)
               (j.size /. 1.5))
           jobs)

(* ------------------------------------------------------------------ *)
(* Discrete reference simulator                                        *)
(* ------------------------------------------------------------------ *)

let test_discrete_single_job () =
  let c = Discrete.run ~dt:0.1 ~machines:1 ~policy:rr [ job ~id:0 ~arrival:0. ~size:1. ] in
  Alcotest.(check (float 0.1001)) "within one step" 1. c.(0)

let test_discrete_validation () =
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected discrete validation failure")
    [
      (fun () -> ignore (Discrete.run ~dt:0. ~machines:1 ~policy:rr []));
      (fun () -> ignore (Discrete.run ~dt:0.1 ~machines:0 ~policy:rr []));
      (fun () -> ignore (Discrete.run ~dt:0.1 ~machines:1 ~policy:rr [ job ~id:3 ~arrival:0. ~size:1. ]));
    ]

(* For a priority policy like SRPT a dt-granularity decision can permute
   jobs whose remaining work is nearly tied, moving individual completion
   times arbitrarily; what is stable is the *sorted* completion profile.
   For continuous-share RR, per-job completions themselves are stable. *)
let prop_discrete_matches_exact ~sort policy =
  QCheck2.Test.make
    ~name:(Printf.sprintf "discrete reference agrees with exact simulator (%s)" policy.Policy.name)
    ~count:50
    QCheck2.Gen.(list_size (int_range 1 10) (pair (float_range 0. 8.) (float_range 0.2 3.)))
    (fun pairs ->
      let jobs = jobs_of_pairs pairs in
      let dt = 0.005 in
      let exact = (Simulator.run ~machines:1 ~policy jobs).completions in
      let disc = Discrete.run ~dt ~machines:1 ~policy jobs in
      if sort then begin
        Array.sort Float.compare exact;
        Array.sort Float.compare disc
      end;
      let n = Array.length exact in
      (* Each step can misplace a completion by dt, and a late completion
         keeps stealing shares from every other job for up to one step, so
         lateness can compound across completion chains: an O(n^2 dt)
         envelope still catches any algebra bug (those are O(1)). *)
      let tol = Float.of_int ((n * n) + 10) *. dt in
      Array.for_all Fun.id (Array.map2 (fun a b -> Float.abs (a -. b) <= tol) exact disc))

(* ------------------------------------------------------------------ *)
(* Timeline identity                                                   *)
(* ------------------------------------------------------------------ *)

let prop_alive_integral_is_total_flow =
  QCheck2.Test.make ~name:"integral of alive count = total flow time" ~count:100 instance_gen
    (fun pairs ->
      let jobs = jobs_of_pairs pairs in
      let res = Simulator.run ~record_trace:true ~machines:2 ~policy:rr jobs in
      let total = Simulator.total_flow res in
      Float.abs (Rr_metrics.Timeline.alive_integral res.trace -. total)
      <= 1e-6 *. (1. +. total))

let test_timeline_stats () =
  let jobs = [ job ~id:0 ~arrival:0. ~size:1.; job ~id:1 ~arrival:0. ~size:1. ] in
  let res = Simulator.run ~record_trace:true ~machines:1 ~policy:rr jobs in
  Alcotest.(check int) "peak" 2 (Rr_metrics.Timeline.peak_alive res.trace);
  Alcotest.(check (float 1e-9)) "mean alive" 2. (Rr_metrics.Timeline.mean_alive res.trace);
  let series = Rr_metrics.Timeline.alive_series ~sample_every:0.5 res.trace in
  Alcotest.(check bool) "series sampled" true (List.length series >= 3)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_flows_at_least_size_over_speed 1. rr;
      prop_flows_at_least_size_over_speed 2. srpt;
      prop_work_conservation;
      prop_all_complete;
      prop_speed_helps_rr;
      prop_scale_invariance;
      prop_rr_rates_equal_in_trace;
      prop_discrete_matches_exact ~sort:false rr;
      prop_discrete_matches_exact ~sort:true srpt;
      prop_alive_integral_is_total_flow;
      prop_assignment_feasible;
    ]

let () =
  Alcotest.run "rr_engine"
    [
      ( "job",
        [
          Alcotest.test_case "validation" `Quick test_job_validation;
          Alcotest.test_case "release order" `Quick test_job_release_order;
        ] );
      ( "hand schedules",
        [
          Alcotest.test_case "single job" `Quick test_single_job;
          Alcotest.test_case "single job speed" `Quick test_single_job_speed;
          Alcotest.test_case "rr two jobs" `Quick test_rr_two_jobs_share;
          Alcotest.test_case "rr unequal" `Quick test_rr_unequal_sizes;
          Alcotest.test_case "rr staggered" `Quick test_rr_staggered;
          Alcotest.test_case "srpt order" `Quick test_srpt_order;
          Alcotest.test_case "srpt preempts" `Quick test_srpt_preempts;
          Alcotest.test_case "rr underloaded machines" `Quick test_rr_underloaded_machines;
          Alcotest.test_case "rr multimachine overload" `Quick test_rr_multimachine_overload;
          Alcotest.test_case "idle period" `Quick test_idle_period;
          Alcotest.test_case "boundary completion/arrival" `Quick
            test_simultaneous_completion_and_arrival;
          Alcotest.test_case "batch admission" `Quick test_batch_admission;
        ] );
      ( "errors",
        [
          Alcotest.test_case "bad ids" `Quick test_bad_ids_rejected;
          Alcotest.test_case "machines" `Quick test_machines_positive;
          Alcotest.test_case "speed" `Quick test_speed_positive;
          Alcotest.test_case "starvation" `Quick test_starvation_detected;
          Alcotest.test_case "overallocation" `Quick test_overallocation_detected;
          Alcotest.test_case "bad rates" `Quick test_bad_rates_detected;
          Alcotest.test_case "stale horizon" `Quick test_stale_horizon_detected;
          Alcotest.test_case "max events" `Quick test_max_events;
        ] );
      ( "trace",
        [
          Alcotest.test_case "opt-in" `Quick test_trace_recorded_only_on_request;
          Alcotest.test_case "work conservation" `Quick test_trace_work_conservation;
          Alcotest.test_case "segments ordered" `Quick test_trace_segments_ordered;
        ] );
      ( "discrete reference",
        [
          Alcotest.test_case "single job" `Quick test_discrete_single_job;
          Alcotest.test_case "validation" `Quick test_discrete_validation;
          Alcotest.test_case "timeline stats" `Quick test_timeline_stats;
        ] );
      ( "machine assignment",
        [
          Alcotest.test_case "serialises shares" `Quick test_assignment_serialises_shares;
          Alcotest.test_case "gantt renders" `Quick test_assignment_gantt_renders;
          Alcotest.test_case "overlap detection" `Quick test_assignment_validate_catches_overlap;
        ] );
      ("properties", qsuite);
    ]
