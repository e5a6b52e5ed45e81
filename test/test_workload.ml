(* Tests for workload generation: distributions, arrival processes,
   instances, adversaries and persistence. *)

open Rr_workload

let check_close ?(tol = 1e-9) msg a b = Alcotest.(check (float tol)) msg a b

let rng () = Rr_util.Prng.create ~seed:99

(* ------------------------------------------------------------------ *)
(* Distribution                                                        *)
(* ------------------------------------------------------------------ *)

let all_valid_dists =
  [
    Distribution.Deterministic 2.;
    Distribution.Uniform { lo = 1.; hi = 3. };
    Distribution.Exponential { mean = 1.5 };
    Distribution.Pareto { alpha = 2.5; x_min = 1. };
    Distribution.Bounded_pareto { alpha = 1.5; x_min = 0.5; x_max = 50. };
    Distribution.Bimodal { small = 1.; large = 10.; prob_large = 0.1 };
  ]

(* The raw cursor of [Stream.start_raw] (one specialised fill per size
   constructor under Poisson arrivals, the generic samplers otherwise)
   and the boxed [Stream.start] must yield the same jobs, bit for bit:
   the closed driver reads the first, the general loop and the live feed
   the second, and the differential suites compare them. *)
let test_stream_raw_matches_boxed () =
  let arrivals =
    [ Arrivals.Poisson { rate = 0.8 }; Arrivals.Periodic { interval = 0.5 } ]
  in
  List.iter
    (fun sizes ->
      List.iter
        (fun arr ->
          let s = Instance.Stream.generate ~seed:31 ~arrivals:arr ~sizes ~n:2000 () in
          let label = Arrivals.name arr ^ "/" ^ Distribution.name sizes in
          let boxed = Instance.Stream.start s in
          let raw = Instance.Stream.start_raw s in
          let cur = { Rr_engine.Simulator.Source.arrival = 0.; size = 0. } in
          let rec go i =
            let id = raw cur in
            match boxed () with
            | None -> Alcotest.(check int) (label ^ ": both exhausted") (-1) id
            | Some (j : Rr_engine.Job.t) ->
                if
                  id <> j.id
                  || Int64.bits_of_float cur.arrival <> Int64.bits_of_float j.arrival
                  || Int64.bits_of_float cur.size <> Int64.bits_of_float j.size
                then
                  Alcotest.failf "%s job %d: raw (%d, %h, %h) vs boxed (%d, %h, %h)" label i id
                    cur.arrival cur.size j.id j.arrival j.size;
                go (i + 1)
          in
          go 0)
        arrivals)
    all_valid_dists

let test_distribution_validate () =
  List.iter
    (fun d ->
      match Distribution.validate d with
      | Ok () -> ()
      | Error e -> Alcotest.failf "unexpected rejection: %s" e)
    all_valid_dists;
  List.iter
    (fun d ->
      match Distribution.validate d with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "expected rejection of %s" (Distribution.name d))
    [
      Distribution.Deterministic 0.;
      Distribution.Uniform { lo = 3.; hi = 1. };
      Distribution.Exponential { mean = -1. };
      Distribution.Pareto { alpha = 0.; x_min = 1. };
      Distribution.Bounded_pareto { alpha = 1.; x_min = 5.; x_max = 2. };
      Distribution.Bimodal { small = 1.; large = 10.; prob_large = 1.5 };
    ]

let test_distribution_sample_positive () =
  let r = rng () in
  List.iter
    (fun d ->
      for _ = 1 to 1000 do
        let x = Distribution.sample r d in
        if not (x > 0. && Float.is_finite x) then
          Alcotest.failf "%s produced %g" (Distribution.name d) x
      done)
    all_valid_dists

let test_distribution_means_empirical () =
  let r = rng () in
  List.iter
    (fun d ->
      let mu = Distribution.mean d in
      let n = 200_000 in
      let acc = Rr_util.Kahan.create () in
      for _ = 1 to n do
        Rr_util.Kahan.add acc (Distribution.sample r d)
      done;
      let emp = Rr_util.Kahan.total acc /. Float.of_int n in
      if Float.abs (emp -. mu) > 0.05 *. mu then
        Alcotest.failf "%s: analytic mean %g vs empirical %g" (Distribution.name d) mu emp)
    [
      Distribution.Deterministic 2.;
      Distribution.Uniform { lo = 1.; hi = 3. };
      Distribution.Exponential { mean = 1.5 };
      Distribution.Bounded_pareto { alpha = 1.5; x_min = 0.5; x_max = 50. };
      Distribution.Bimodal { small = 1.; large = 10.; prob_large = 0.1 };
    ]

let test_pareto_infinite_mean () =
  check_close "alpha <= 1 has infinite mean" Float.infinity
    (Distribution.mean (Distribution.Pareto { alpha = 0.9; x_min = 1. }))

(* ------------------------------------------------------------------ *)
(* Arrivals                                                            *)
(* ------------------------------------------------------------------ *)

let test_arrivals_sorted_nonneg () =
  let r = rng () in
  List.iter
    (fun p ->
      let times = Arrivals.generate r p ~n:500 in
      Alcotest.(check int) "count" 500 (Array.length times);
      let prev = ref (-1.) in
      Array.iter
        (fun t ->
          if t < !prev then Alcotest.failf "%s not sorted" (Arrivals.name p);
          if t < 0. then Alcotest.failf "%s negative time" (Arrivals.name p);
          prev := t)
        times)
    [
      Arrivals.Poisson { rate = 2. };
      Arrivals.Periodic { interval = 0.5 };
      Arrivals.Batched { batch = 10; interval = 5. };
      Arrivals.Bursty { rate_low = 1.; rate_high = 10.; mean_dwell = 3. };
      Arrivals.Diurnal { base_rate = 2.; amplitude = 0.8; period = 20. };
    ]

let test_poisson_rate () =
  let r = rng () in
  let n = 100_000 in
  let times = Arrivals.generate r (Arrivals.Poisson { rate = 2. }) ~n in
  let emp_rate = Float.of_int n /. times.(n - 1) in
  check_close ~tol:0.05 "poisson empirical rate" 2. emp_rate

let test_periodic_exact () =
  let r = rng () in
  let times = Arrivals.generate r (Arrivals.Periodic { interval = 2. }) ~n:4 in
  Alcotest.(check (array (float 1e-12))) "exact grid" [| 0.; 2.; 4.; 6. |] times

let test_batched_shape () =
  let r = rng () in
  let times = Arrivals.generate r (Arrivals.Batched { batch = 2; interval = 3. }) ~n:5 in
  Alcotest.(check (array (float 1e-12))) "batches" [| 0.; 0.; 3.; 3.; 6. |] times

let test_arrivals_validate () =
  List.iter
    (fun p ->
      match Arrivals.validate p with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "expected arrival process rejection")
    [
      Arrivals.Poisson { rate = 0. };
      Arrivals.Periodic { interval = -1. };
      Arrivals.Batched { batch = 0; interval = 1. };
      Arrivals.Bursty { rate_low = 5.; rate_high = 1.; mean_dwell = 1. };
      Arrivals.Diurnal { base_rate = 2.; amplitude = 1.; period = 20. };
      Arrivals.Diurnal { base_rate = 0.; amplitude = 0.5; period = 20. };
    ]

let test_diurnal_rate () =
  let r = rng () in
  let n = 60_000 in
  let times = Arrivals.generate r (Arrivals.Diurnal { base_rate = 2.; amplitude = 0.7; period = 10. }) ~n in
  (* Over many periods the average intensity is the base rate. *)
  let emp = Float.of_int n /. times.(n - 1) in
  Alcotest.(check (float 0.1)) "diurnal long-run rate" 2. emp

let test_diurnal_modulation () =
  (* With near-full amplitude, arrivals concentrate in the rate peaks: the
     first half of each period (sin > 0) must receive well over half the
     arrivals. *)
  let r = rng () in
  let period = 10. in
  let times =
    Arrivals.generate r (Arrivals.Diurnal { base_rate = 1.; amplitude = 0.95; period }) ~n:20_000
  in
  let in_peak =
    Array.fold_left
      (fun acc t -> if Float.rem t period < period /. 2. then acc + 1 else acc)
      0 times
  in
  Alcotest.(check bool) "peak-half dominates" true
    (Float.of_int in_peak > 0.6 *. Float.of_int (Array.length times))

(* ------------------------------------------------------------------ *)
(* Instance                                                            *)
(* ------------------------------------------------------------------ *)

let test_instance_sorts_and_numbers () =
  let inst = Instance.of_jobs [ (3., 1.); (1., 2.); (2., 0.5) ] in
  let jobs = Instance.jobs inst in
  Alcotest.(check (list int)) "dense ids" [ 0; 1; 2 ]
    (List.map (fun (j : Rr_engine.Job.t) -> j.id) jobs);
  Alcotest.(check (list (float 1e-12))) "sorted arrivals" [ 1.; 2.; 3. ]
    (List.map (fun (j : Rr_engine.Job.t) -> j.arrival) jobs)

let test_instance_rejects_bad_jobs () =
  List.iter
    (fun pairs ->
      match Instance.of_jobs pairs with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected invalid instance rejection")
    [ [ (-1., 1.) ]; [ (0., 0.) ]; [ (0., -1.) ]; [ (Float.nan, 1.) ] ]

let test_instance_measures () =
  let inst = Instance.of_jobs [ (0., 2.); (4., 3.) ] in
  Alcotest.(check int) "n" 2 (Instance.n inst);
  check_close "total work" 5. (Instance.total_work inst);
  check_close "span" 4. (Instance.span inst);
  check_close "offered load" 1.25 (Instance.offered_load ~machines:1 inst)

let test_generate_load_hits_target () =
  let r = rng () in
  let inst =
    Instance.generate_load ~rng:r
      ~sizes:(Distribution.Exponential { mean = 2. })
      ~load:0.8 ~machines:2 ~n:20_000 ()
  in
  let rho = Instance.offered_load ~machines:2 inst in
  check_close ~tol:0.05 "empirical load near target" 0.8 rho

let test_generate_load_validation () =
  let r = rng () in
  (match
     Instance.generate_load ~rng:r ~sizes:(Distribution.Exponential { mean = 1. }) ~load:0.
       ~machines:1 ~n:5 ()
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "load must be positive");
  match
    Instance.generate_load ~rng:r
      ~sizes:(Distribution.Pareto { alpha = 0.5; x_min = 1. })
      ~load:0.9 ~machines:1 ~n:5 ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "infinite-mean sizes must be rejected"

(* ------------------------------------------------------------------ *)
(* Adversary                                                           *)
(* ------------------------------------------------------------------ *)

let test_batch_plus_stream_shape () =
  let inst = Adversary.batch_plus_stream ~batch:5 ~stream_load:1.0 ~horizon_factor:1.0 in
  Alcotest.(check int) "job count" 30 (Instance.n inst);
  let at_zero =
    List.length
      (List.filter (fun (j : Rr_engine.Job.t) -> j.arrival = 0.) (Instance.jobs inst))
  in
  Alcotest.(check int) "batch at zero" 5 at_zero

let test_long_vs_stream_shape () =
  let inst = Adversary.long_vs_stream ~long_size:10. ~n_short:20 ~short_size:1. in
  Alcotest.(check int) "count" 21 (Instance.n inst);
  check_close "work" 30. (Instance.total_work inst)

let test_geometric_batch_shape () =
  let inst = Adversary.geometric_batch ~levels:3 ~k:2 in
  (* Levels 0,1,2 with counts 1, 4, 16 -> 21 jobs; work 1 + 2 + 4 = 7. *)
  Alcotest.(check int) "count" 21 (Instance.n inst);
  check_close "work" 7. (Instance.total_work inst)

let test_adversary_validation () =
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected adversary parameter rejection")
    [
      (fun () -> Adversary.batch_plus_stream ~batch:0 ~stream_load:1. ~horizon_factor:1.);
      (fun () -> Adversary.batch_plus_stream ~batch:3 ~stream_load:0. ~horizon_factor:1.);
      (fun () -> Adversary.long_vs_stream ~long_size:0. ~n_short:3 ~short_size:1.);
      (fun () -> Adversary.geometric_batch ~levels:0 ~k:2);
      (fun () -> Adversary.geometric_batch ~levels:15 ~k:2);
    ]

(* ------------------------------------------------------------------ *)
(* Trace_io                                                            *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_string () =
  let inst = Instance.of_jobs [ (0., 1.5); (0.25, 2.); (7., 0.125) ] in
  let inst' = Trace_io.of_string (Trace_io.to_string inst) in
  let pairs i =
    List.map (fun (j : Rr_engine.Job.t) -> (j.arrival, j.size)) (Instance.jobs i)
  in
  Alcotest.(check (list (pair (float 1e-15) (float 1e-15))))
    "round trip" (pairs inst) (pairs inst')

let test_roundtrip_file () =
  let inst = Adversary.long_vs_stream ~long_size:3. ~n_short:5 ~short_size:1. in
  let path = Filename.temp_file "rr_inst" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save ~path inst;
      let inst' = Trace_io.load ~path in
      Alcotest.(check int) "count preserved" (Instance.n inst) (Instance.n inst'))

let test_parse_errors () =
  List.iter
    (fun s ->
      match Trace_io.of_string s with
      | exception Trace_io.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error for %S" s)
    [
      "nonsense\n0,1\n";
      "arrival,size\n0\n";
      "arrival,size\nx,y\n";
      "arrival,size\n0,-1\n";
    ]

let test_parse_error_line_number () =
  match Trace_io.of_string "arrival,size\n0,1\nbroken\n" with
  | exception Trace_io.Parse_error { line; _ } -> Alcotest.(check int) "line" 3 line
  | _ -> Alcotest.fail "expected parse error"

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck2.Test.make ~name:"trace_io round-trips any instance" ~count:100
    QCheck2.Gen.(list_size (int_range 1 30) (pair (float_range 0. 100.) (float_range 0.001 50.)))
    (fun pairs ->
      let inst = Instance.of_jobs pairs in
      let inst' = Trace_io.of_string (Trace_io.to_string inst) in
      let p i = List.map (fun (j : Rr_engine.Job.t) -> (j.arrival, j.size)) (Instance.jobs i) in
      p inst = p inst')

let prop_generate_sorted =
  QCheck2.Test.make ~name:"generated instances are sorted with dense ids" ~count:100
    QCheck2.Gen.(int_range 1 200)
    (fun n ->
      let r = Rr_util.Prng.create ~seed:n in
      let inst =
        Instance.generate ~rng:r ~arrivals:(Arrivals.Poisson { rate = 1. })
          ~sizes:(Distribution.Exponential { mean = 1. }) ~n ()
      in
      let jobs = Instance.jobs inst in
      List.for_all2
        (fun (j : Rr_engine.Job.t) id -> j.id = id)
        jobs
        (List.init (List.length jobs) Fun.id))

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_roundtrip; prop_generate_sorted ]

let () =
  Alcotest.run "rr_workload"
    [
      ( "distribution",
        [
          Alcotest.test_case "validate" `Quick test_distribution_validate;
          Alcotest.test_case "samples positive" `Quick test_distribution_sample_positive;
          Alcotest.test_case "empirical means" `Quick test_distribution_means_empirical;
          Alcotest.test_case "pareto infinite mean" `Quick test_pareto_infinite_mean;
          Alcotest.test_case "raw stream = boxed stream" `Quick test_stream_raw_matches_boxed;
        ] );
      ( "arrivals",
        [
          Alcotest.test_case "sorted nonneg" `Quick test_arrivals_sorted_nonneg;
          Alcotest.test_case "poisson rate" `Quick test_poisson_rate;
          Alcotest.test_case "periodic" `Quick test_periodic_exact;
          Alcotest.test_case "batched" `Quick test_batched_shape;
          Alcotest.test_case "validate" `Quick test_arrivals_validate;
          Alcotest.test_case "diurnal rate" `Quick test_diurnal_rate;
          Alcotest.test_case "diurnal modulation" `Quick test_diurnal_modulation;
        ] );
      ( "instance",
        [
          Alcotest.test_case "sorts and numbers" `Quick test_instance_sorts_and_numbers;
          Alcotest.test_case "rejects bad jobs" `Quick test_instance_rejects_bad_jobs;
          Alcotest.test_case "measures" `Quick test_instance_measures;
          Alcotest.test_case "load targeting" `Quick test_generate_load_hits_target;
          Alcotest.test_case "load validation" `Quick test_generate_load_validation;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "batch+stream" `Quick test_batch_plus_stream_shape;
          Alcotest.test_case "long+stream" `Quick test_long_vs_stream_shape;
          Alcotest.test_case "geometric" `Quick test_geometric_batch_shape;
          Alcotest.test_case "validation" `Quick test_adversary_validation;
        ] );
      ( "trace_io",
        [
          Alcotest.test_case "string round-trip" `Quick test_roundtrip_string;
          Alcotest.test_case "file round-trip" `Quick test_roundtrip_file;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "error line numbers" `Quick test_parse_error_line_number;
        ] );
      ("properties", qsuite);
    ]
