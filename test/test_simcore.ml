(* Tests for the fast simulation core: the specialised engines (the
   equal-share cascade, the priority indexes, the SETF cascade, the
   dense class kernels, the hybrid and budget kernels — each
   differential against the general event loop over every registry
   policy), the class-based Run dispatch that selects them, and the
   memoizing result cache. *)

open Temporal_fairness
module Simulator = Rr_engine.Simulator
module Instance = Rr_workload.Instance
module Registry = Rr_policies.Registry

let rr = Rr_policies.Round_robin.policy

(* Every registry policy (all are classified), with its expected engine
   tag.  Policies are built fresh per simulation — quantum-rr's closure
   owns the ready queue of one run. *)
let fast_policies =
  [
    (Registry.Rr, "equal-share");
    (Registry.Srpt, "srpt-index");
    (Registry.Sjf, "sjf-index");
    (Registry.Fcfs, "fcfs-index");
    (Registry.Setf, "setf-cascade");
    (Registry.Hdf 2., "hdf-index");
    (Registry.Laps 0.5, "laps-dense");
    (Registry.Mlfq 0.5, "mlfq-ladder");
    (Registry.Quantum_rr 1., "quantum-cycle");
    (Registry.Wrr_age 2, "wrr-age-dense");
    (Registry.Wrr_static 1., "wrr-static-dense");
    (Registry.Hybrid 3., "hybrid-index");
    (Registry.Srpt_mig 1, "srpt-mig-index");
  ]

(* The engines compute the same trajectory in different arithmetic orders,
   so flows agree only up to accumulated rounding. *)
let flow_rtol = 1e-9

let rel_diff a b = Float.abs (a -. b) /. Float.max 1e-12 (Float.max (Float.abs a) (Float.abs b))

let instance_of_pairs pairs = Instance.of_jobs pairs

(* ------------------------------------------------------------------ *)
(* Differential: equal-share engine vs general event loop              *)
(* ------------------------------------------------------------------ *)

let diff_gen =
  QCheck2.Gen.(
    let pairs = list_size (int_range 1 40) (pair (float_range 0. 30.) (float_range 0.05 5.)) in
    let machines = oneofl [ 1; 2; 8 ] in
    let speed = oneofl [ 1.; 1.5; 4.4 ] in
    triple pairs machines speed)

let prop_equal_share_matches_general =
  QCheck2.Test.make ~name:"equal-share engine matches general RR (flows)" ~count:250 diff_gen
    (fun (pairs, machines, speed) ->
      let jobs = Instance.jobs (instance_of_pairs pairs) in
      let general = Simulator.run ~machines ~speed ~policy:rr jobs in
      let fast = Simulator.run_class ~machines ~speed Rr_engine.Policy_class.Equal_share jobs in
      let fg = Simulator.flows general and ff = Simulator.flows fast in
      Array.length fg = Array.length ff
      && Array.for_all2 (fun a b -> rel_diff a b <= flow_rtol) fg ff)

let prop_run_dispatch_matches_general =
  (* Same property one layer up: Run.simulate under `Auto vs forced
     `General, exercising the dispatch itself. *)
  QCheck2.Test.make ~name:"Run.simulate fast path matches general RR" ~count:100 diff_gen
    (fun (pairs, machines, speed) ->
      let inst = instance_of_pairs pairs in
      let on = Run.simulate (Run.config ~machines ~speed ()) rr inst in
      let off = Run.simulate (Run.config ~machines ~speed ~engine:`General ()) rr inst in
      Array.for_all2
        (fun a b -> rel_diff a b <= flow_rtol)
        (Simulator.flows on) (Simulator.flows off))

(* An unclassified structural copy of SRPT: the dispatch keys on the
   declared class, never on name or structure, so this value runs the
   general loop under every engine-agnostic selection. *)
let impostor_srpt () =
  {
    Rr_engine.Policy.name = "srpt";
    clairvoyant = true;
    klass = None;
    allocate =
      (fun ~now:_ ~machines ~speed:_ views ->
        Rr_policies.Srpt.top_m_by Rr_policies.Srpt.key ~machines views);
  }

let prop_fast_path_inert_for_unclassified =
  QCheck2.Test.make ~name:"unclassified policy is engine-invariant (general both ways)"
    ~count:50 diff_gen
    (fun (pairs, machines, speed) ->
      let inst = instance_of_pairs pairs in
      let on = Run.simulate (Run.config ~machines ~speed ()) (impostor_srpt ()) inst in
      let off =
        Run.simulate (Run.config ~machines ~speed ~engine:`General ()) (impostor_srpt ()) inst
      in
      Simulator.flows on = Simulator.flows off)

(* One differential property per specialised engine: Run.simulate under
   `Auto vs forced `General must agree on every flow to flow_rtol,
   across m in {1, 2, 8} and several speeds. *)
let prop_engine_matches_general (spec, engine) =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "%s engine matches general %s (flows)" engine
        (Registry.make spec).Rr_engine.Policy.name)
    ~count:250 diff_gen
    (fun (pairs, machines, speed) ->
      let inst = instance_of_pairs pairs in
      let fast = Run.simulate (Run.config ~machines ~speed ()) (Registry.make spec) inst in
      let general =
        Run.simulate (Run.config ~machines ~speed ~engine:`General ()) (Registry.make spec) inst
      in
      let ff = Simulator.flows fast and fg = Simulator.flows general in
      Array.length ff = Array.length fg
      && Array.for_all2 (fun a b -> rel_diff a b <= flow_rtol) ff fg)

let engine_props = List.map prop_engine_matches_general fast_policies

(* The closed mlfq-ladder kernel on knife-edge instances (sizes on the
   ladder's thresholds and tolerance bands, see mlfq_knife.ml) must agree
   with the general loop running the mirror policy. *)
let prop_mlfq_knife_edge =
  QCheck2.Test.make ~name:"mlfq-ladder matches general on ladder knife edges" ~count:300
    ~print:Mlfq_knife.print Mlfq_knife.gen (fun c ->
      let inst = instance_of_pairs (Mlfq_knife.pairs c) in
      let machines = c.Mlfq_knife.machines in
      let cfg = Run.config ~machines () in
      if Run.engine_name cfg (Mlfq_knife.policy c) <> "mlfq-ladder" then
        QCheck2.Test.fail_report "auto does not select the mlfq-ladder kernel";
      let fast = Run.simulate cfg (Mlfq_knife.policy c) inst in
      let general =
        Run.simulate (Run.config ~machines ~engine:`General ()) (Mlfq_knife.policy c) inst
      in
      let ff = Simulator.flows fast and fg = Simulator.flows general in
      Array.length ff = Array.length fg
      && Array.for_all2 (fun a b -> rel_diff a b <= flow_rtol) ff fg)

(* ------------------------------------------------------------------ *)
(* Differential edge-case corpus, every (fast engine, general) pair    *)
(* ------------------------------------------------------------------ *)

(* Deterministic instances aimed at the engines' decision boundaries:
   simultaneous arrivals, exact size/remaining-work ties, arrivals landing
   exactly on completions, preemption chains, more machines than jobs,
   single-job and empty instances. *)
let edge_corpus =
  [
    ("empty", []);
    ("single job", [ (0., 1.) ]);
    ("simultaneous arrivals, tied sizes", [ (0., 2.); (0., 2.); (0., 1.); (0., 1.); (0., 3.); (0., 2.) ]);
    ("all identical", [ (0., 1.); (0., 1.); (0., 1.); (0., 1.); (0., 1.) ]);
    ("arrival exactly at completion", [ (0., 1.); (1., 1.); (2., 1.) ]);
    ("remaining-work tie at arrival", [ (0., 2.); (1., 1.) ]);
    ("preemption chain", [ (0., 10.); (1., 4.); (2., 2.); (3., 1.) ]);
    ("batch then stragglers", [ (0., 3.); (0., 3.); (0., 3.); (4., 0.5); (4., 0.5); (9., 1.) ]);
    (* A long job starved by a stream of shorts: under the hybrid's
       default theta = 3 the size-2 job promotes at t = 6, mid-stream;
       for SRPT-mig it burns its eviction budget early. *)
    ( "starvation stream",
      [ (0., 2.); (0.5, 1.); (1., 1.); (1.5, 1.); (2., 1.); (3., 1.); (4.5, 1.); (6., 0.5) ] );
    (* Promotion/eviction decisions landing exactly on completions. *)
    ("tie at promotion instant", [ (0., 1.); (0., 2.); (3., 1.); (6., 1.) ]);
  ]

let test_edge_corpus () =
  List.iter
    (fun (spec, engine) ->
      List.iter
        (fun (label, pairs) ->
          let inst = instance_of_pairs pairs in
          List.iter
            (fun machines ->
              let fast = Run.simulate (Run.config ~machines ()) (Registry.make spec) inst in
              let general =
                Run.simulate (Run.config ~machines ~engine:`General ()) (Registry.make spec)
                  inst
              in
              let ff = Simulator.flows fast and fg = Simulator.flows general in
              if Array.length ff <> Array.length fg then
                Alcotest.failf "%s / %s / m=%d: job counts differ" engine label machines;
              Array.iteri
                (fun i a ->
                  if rel_diff a fg.(i) > flow_rtol then
                    Alcotest.failf "%s / %s / m=%d: flow %d differs (%.17g vs %.17g)" engine
                      label machines i a fg.(i))
                ff)
            [ 1; 2; 8 ])
        edge_corpus)
    fast_policies

(* A zero-length event: the newcomer joins SETF's front group, whose
   level (1e-10) already reaches its size within the completion
   threshold, so its completion instant is its own arrival.  The closed
   driver runs that event with dt = 0, as the live driver does (it used
   to trip an assertion), and both return flows 0.5 and 0: each within
   [Clock.threshold size] of the general loop's 0.5000000001 and
   2e-10. *)
let test_zero_length_event () =
  let pairs = [ (0., 0.5); (1e-10, 1e-10) ] in
  let inst = instance_of_pairs pairs in
  let jobs = Instance.jobs inst in
  let setf = Rr_policies.Setf.policy in
  let closed =
    Simulator.flows
      (Simulator.run_class ~machines:1 Rr_engine.Policy_class.Attained_cascade jobs)
  in
  let auto = Run.flows (Run.config ~cache:false ()) setf inst in
  let live =
    let flows = Array.make 2 nan in
    let t =
      Rr_engine.Live.create
        ~sink:(fun ~id ~arrival:_ ~flow -> flows.(id) <- flow)
        (Rr_engine.Live.Classified Rr_engine.Policy_class.Attained_cascade)
    in
    List.iter
      (fun (arrival, size) -> ignore (Rr_engine.Live.submit t ~arrival ~size : int))
      pairs;
    Rr_engine.Live.drain t;
    flows
  in
  let general = Simulator.flows (Simulator.run ~machines:1 ~policy:setf jobs) in
  let bits a = Array.to_list (Array.map Int64.bits_of_float a) in
  Alcotest.(check (list int64)) "Run auto = closed, bit for bit" (bits closed) (bits auto);
  Alcotest.(check (list int64)) "live = closed, bit for bit" (bits closed) (bits live);
  List.iteri
    (fun i (_, size) ->
      if Float.abs (closed.(i) -. general.(i)) > Rr_engine.Clock.threshold size then
        Alcotest.failf "job %d: closed %.17g vs general %.17g" i closed.(i) general.(i))
    pairs

(* A job whose size is within the completion threshold of zero is
   complete at the first event after its release, served or not: the
   general loop retires every such job there.  Released with three
   others, it falls outside LAPS(0.5)'s window of the two latest
   arrivals, which only serves; the closed and live kernels must still
   retire it at t = 2, when the window's jobs complete. *)
let test_born_complete_outside_laps_window () =
  let inst = instance_of_pairs [ (0., 1e-10); (0., 1.); (0., 1.); (0., 1.) ] in
  let policy = Registry.make (Registry.Laps 0.5) in
  let general = Run.flows (Run.config ~cache:false ~engine:`General ()) policy inst in
  Alcotest.(check (float 1e-9)) "general retires it with the window" 2. general.(0);
  List.iter
    (fun engine ->
      let flows = Run.flows (Run.config ~cache:false ~engine ()) policy inst in
      Array.iteri
        (fun i f ->
          if rel_diff f general.(i) > flow_rtol then
            Alcotest.failf "%s job %d: %.17g vs general %.17g" (Run.engine_to_string engine) i f
              general.(i))
        flows)
    [ `Closed; `Live ]

(* A newcomer of size within [Clock.threshold] that must wait: three
   unit jobs and a 1e-10 job released together at m = 1.  The general
   loop retires the small one at the first event after its release,
   served or not (flow 1, 3 events, mean 1.75); every closed and live
   kernel must too, rather than keep it until it is seated (4 events,
   mean 2.25 for FCFS, HDF and quantum RR).  Every class also runs two
   more shapes: two small jobs released with a unit one (the second
   small job ties with the first under SRPT and SJF, and waits), and a
   small job seated at its own arrival and preempted at once by a
   denser newcomer (HDF).  Two more make the hybrid and the preemption
   budget leave it waiting: a starved incumbent outranks any fresh job,
   and with budget 0 no incumbent can be evicted. *)
let test_tiny_waiting_newcomer () =
  let shapes =
    [
      [ (0., 1.); (0., 1.); (0., 1.); (0., 1e-10) ];
      [ (0., 1.); (0., 1e-10); (0., 1e-10) ];
      [ (0., 1e-10); (0., 2.) ];
    ]
  in
  List.iter
    (fun (spec, pairs) ->
      let inst = instance_of_pairs pairs in
      let policy = Registry.make spec in
      let name = policy.Rr_engine.Policy.name in
      let run engine = Run.simulate (Run.config ~cache:false ~engine ()) policy inst in
      let general = run `General in
      let gflows = Simulator.flows general in
      List.iter
        (fun engine ->
          let r = run engine in
          let ename = Run.engine_to_string engine in
          Array.iteri
            (fun i f ->
              if rel_diff f gflows.(i) > flow_rtol then
                Alcotest.failf "%s %s job %d: %.17g vs general %.17g" name ename i f gflows.(i))
            (Simulator.flows r);
          if engine = `Closed then
            Alcotest.(check int)
              (name ^ ": closed events = general events")
              general.Simulator.events r.Simulator.events)
        [ `Closed; `Live ])
    (List.concat_map
       (fun spec -> List.map (fun pairs -> (spec, pairs)) shapes)
       (Registry.default_specs ())
    @ [
        (Registry.Hybrid 0.1, [ (0., 1.); (0., 1.); (0.5, 1e-10) ]);
        (Registry.Srpt_mig 0, [ (0., 1.); (0., 1.); (0., 1e-10) ]);
      ])

(* A zero-length event in the general loop: a job of size 5e-10
   released at t = 1e7, where one ulp of the clock is ~1.9e-9, completes
   at [now + 5e-10], which rounds onto [now].  The general loop runs
   that event with dt = 0, as both class drivers do (it used to trip an
   assertion), and all three report flow 0. *)
let test_zero_length_event_general () =
  let pairs = [ (1e7, 5e-10) ] in
  let jobs = Instance.jobs (instance_of_pairs pairs) in
  let bits a = Array.to_list (Array.map Int64.bits_of_float a) in
  List.iter
    (fun spec ->
      let policy = Registry.make spec in
      let klass = Option.get policy.Rr_engine.Policy.klass in
      let name = policy.Rr_engine.Policy.name in
      let general = Simulator.flows (Simulator.run ~machines:1 ~policy jobs) in
      let closed = Simulator.flows (Simulator.run_class ~machines:1 klass jobs) in
      let live =
        let flows = Array.make 1 nan in
        let t =
          Rr_engine.Live.create
            ~sink:(fun ~id ~arrival:_ ~flow -> flows.(id) <- flow)
            (Rr_engine.Live.Classified klass)
        in
        List.iter
          (fun (arrival, size) -> ignore (Rr_engine.Live.submit t ~arrival ~size : int))
          pairs;
        Rr_engine.Live.drain t;
        flows
      in
      Alcotest.(check (list int64)) (name ^ ": general = closed") (bits closed) (bits general);
      Alcotest.(check (list int64)) (name ^ ": live = closed") (bits closed) (bits live);
      Alcotest.(check (float 0.)) (name ^ ": flow 0") 0. general.(0))
    [ Registry.Rr; Registry.Srpt; Registry.Fcfs ]

(* ------------------------------------------------------------------ *)
(* Engine classifier                                                   *)
(* ------------------------------------------------------------------ *)

let test_engine_classifier () =
  let cfg = Run.config () in
  List.iter
    (fun (spec, engine) ->
      let policy = Registry.make spec in
      Alcotest.(check string)
        (policy.Rr_engine.Policy.name ^ " classifies")
        engine (Run.engine_name cfg policy);
      Alcotest.(check string)
        (policy.Rr_engine.Policy.name ^ " with fast path off")
        "general"
        (Run.engine_name (Run.config ~engine:`General ()) policy))
    fast_policies;
  (* The class declaration is load-bearing: a structurally identical copy
     of srpt without one must NOT be fast-pathed (its allocate could
     differ from the declaration's contract). *)
  Alcotest.(check string)
    "impostor srpt stays general" "general"
    (Run.engine_name cfg (impostor_srpt ()));
  (* Every registry policy is classified: `Auto never falls back to the
     general loop on a built-in. *)
  List.iter
    (fun spec ->
      let policy = Registry.make spec in
      (match Run.selection_for cfg policy with
      | Run.General ->
          Alcotest.failf "%s not classified under `Auto" policy.Rr_engine.Policy.name
      | _ -> ());
      (* ... and each one also runs under the insisting selector. *)
      let (_ : Run.selection) = Run.selection_for (Run.config ~engine:`Closed ()) policy in
      ())
    (Registry.default_specs ())

let test_fast_engine_traces () =
  (* Each fast engine's optional trace must describe the same schedule as
     the general loop's: same total work, same time-weighted Jain index. *)
  let inst =
    Instance.generate_load
      ~rng:(Rr_util.Prng.create ~seed:13)
      ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
      ~load:0.9 ~machines:1 ~n:60 ()
  in
  List.iter
    (fun (spec, engine) ->
      let fast = Run.simulate (Run.config ~record_trace:true ()) (Registry.make spec) inst in
      let general =
        Run.simulate
          (Run.config ~record_trace:true ~engine:`General ())
          (Registry.make spec) inst
      in
      let work trace = Rr_engine.Trace.total_work ~speed:1. trace in
      let close what a b =
        if rel_diff a b > 1e-6 then Alcotest.failf "%s: %s differ: %g vs %g" engine what a b
      in
      close "trace work" (work fast.Simulator.trace) (work general.Simulator.trace);
      close "jain index"
        (Rr_metrics.Fairness.time_weighted_jain fast.Simulator.trace)
        (Rr_metrics.Fairness.time_weighted_jain general.Simulator.trace))
    fast_policies

let test_equal_share_trace () =
  (* The fast engine's optional trace must describe the same schedule: same
     time-weighted Jain index, same total work. *)
  let inst =
    Instance.generate_load
      ~rng:(Rr_util.Prng.create ~seed:7)
      ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
      ~load:0.9 ~machines:1 ~n:60 ()
  in
  let jobs = Instance.jobs inst in
  let general = Simulator.run ~record_trace:true ~machines:1 ~policy:rr jobs in
  let fast =
    Simulator.run_class ~record_trace:true ~machines:1 Rr_engine.Policy_class.Equal_share jobs
  in
  let work trace = Rr_engine.Trace.total_work ~speed:1. trace in
  let close what a b =
    if rel_diff a b > 1e-6 then Alcotest.failf "%s differ: %g vs %g" what a b
  in
  close "trace work" (work general.trace) (work fast.trace);
  close "jain index"
    (Rr_metrics.Fairness.time_weighted_jain general.trace)
    (Rr_metrics.Fairness.time_weighted_jain fast.trace)

(* ------------------------------------------------------------------ *)
(* Instance digest                                                     *)
(* ------------------------------------------------------------------ *)

let test_digest () =
  let pairs = [ (0., 1.); (0.5, 2.); (1., 0.25) ] in
  let a = Instance.of_jobs ~label:"a" pairs in
  let b = Instance.of_jobs ~label:"b" pairs in
  Alcotest.(check bool) "label-independent" true (Int64.equal (Instance.digest a) (Instance.digest b));
  let c = Instance.of_jobs ~label:"a" [ (0., 1.); (0.5, 2.); (1., 0.250001) ] in
  Alcotest.(check bool) "size-sensitive" false (Int64.equal (Instance.digest a) (Instance.digest c));
  let d = Instance.of_jobs [ (0., 1.); (0.5, 2.) ] in
  Alcotest.(check bool) "count-sensitive" false (Int64.equal (Instance.digest a) (Instance.digest d))

(* ------------------------------------------------------------------ *)
(* Result cache                                                        *)
(* ------------------------------------------------------------------ *)

let small_inst =
  Instance.generate_load
    ~rng:(Rr_util.Prng.create ~seed:11)
    ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
    ~load:0.8 ~machines:1 ~n:30 ()

let test_cache_hit_miss () =
  Cache.clear ();
  let cfg = Run.config () in
  let r1 = Run.measure cfg rr small_inst in
  let s1 = Cache.stats () in
  Alcotest.(check int) "first is a miss" 1 s1.misses;
  Alcotest.(check int) "no hit yet" 0 s1.hits;
  let r2 = Run.measure cfg rr small_inst in
  let s2 = Cache.stats () in
  Alcotest.(check int) "second is a hit" 1 s2.hits;
  Alcotest.(check int) "still one miss" 1 s2.misses;
  Alcotest.(check int) "one entry" 1 s2.size;
  Alcotest.(check bool) "bit-identical result" true (r1 = r2);
  Alcotest.(check bool) "same norm" true
    (Int64.equal (Int64.bits_of_float r1.Run.norm) (Int64.bits_of_float r2.Run.norm))

let test_cache_config_sensitivity () =
  (* Every field that changes the measurement must miss, and the result
     must come from a fresh simulation, never a stale entry. *)
  Cache.clear ();
  let base = Run.config () in
  let r_base = Run.measure base rr small_inst in
  let r_k3 = Run.measure (Run.config ~k:3 ()) rr small_inst in
  let r_speed = Run.measure (Run.config ~speed:2. ()) rr small_inst in
  let r_slow = Run.measure (Run.config ~engine:`General ()) rr small_inst in
  let s = Cache.stats () in
  Alcotest.(check int) "four distinct keys" 4 s.misses;
  Alcotest.(check int) "no spurious hits" 0 s.hits;
  Alcotest.(check bool) "k changes power sum" true (r_k3.Run.power_sum <> r_base.Run.power_sum);
  Alcotest.(check bool) "speed changes norm" true (r_speed.Run.norm < r_base.Run.norm);
  (* fast and general RR agree to rounding but live under different keys *)
  Alcotest.(check bool) "engines agree" true
    (rel_diff r_slow.Run.norm r_base.Run.norm <= flow_rtol);
  (* record_trace is normalised out of the key: a traced config hits *)
  let (_ : Run.result) = Run.measure (Run.config ~record_trace:true ()) rr small_inst in
  Alcotest.(check int) "trace flag shares the entry" 1 (Cache.stats ()).hits

let test_cache_disabled () =
  Cache.clear ();
  let cfg = Run.config ~cache:false () in
  let r1 = Run.measure cfg rr small_inst in
  let r2 = Run.measure cfg rr small_inst in
  let s = Cache.stats () in
  Alcotest.(check int) "no misses recorded" 0 s.misses;
  Alcotest.(check int) "no hits recorded" 0 s.hits;
  Alcotest.(check int) "nothing stored" 0 s.size;
  Alcotest.(check bool) "still deterministic" true (r1 = r2)

let test_flows_uncached () =
  (* Run.flows always re-simulates (entries hold O(1) aggregates, never
     a flow vector) and hands out a fresh array every call. *)
  Cache.clear ();
  let cfg = Run.config () in
  let f1 = Run.flows cfg rr small_inst in
  Array.fill f1 0 (Array.length f1) Float.nan;
  let f2 = Run.flows cfg rr small_inst in
  Alcotest.(check bool) "fresh array each call" true (Array.for_all Float.is_finite f2);
  let s = Cache.stats () in
  Alcotest.(check int) "flows bypass the cache" 0 (s.misses + s.hits + s.size)

let test_cache_capacity () =
  Cache.clear ();
  Fun.protect
    ~finally:(fun () -> Cache.set_capacity Cache.default_capacity)
    (fun () ->
      Cache.set_capacity 0;
      let (_ : Run.result) = Run.measure (Run.config ()) rr small_inst in
      Alcotest.(check int) "insert refused at capacity" 0 (Cache.stats ()).size;
      let (_ : Run.result) = Run.measure (Run.config ()) rr small_inst in
      Alcotest.(check int) "recompute counts as a miss" 2 (Cache.stats ()).misses)

let test_cache_under_pool () =
  (* Many domains hammering the same few keys: results must equal the
     sequential ones and the cache must end up consistent. *)
  Cache.clear ();
  let cfg = Run.config () in
  let policies = [ rr; Rr_policies.Srpt.policy; Rr_policies.Fcfs.policy ] in
  let tasks = List.concat (List.init 20 (fun _ -> List.map (fun p -> (p, small_inst)) policies)) in
  let seq = List.map (fun (p, i) -> Run.measure (Run.config ~cache:false ()) p i) tasks in
  let par = Pool.with_pool ~domains:4 (fun pool -> Run.batch pool cfg tasks) in
  List.iter2
    (fun (a : Run.result) (b : Run.result) ->
      Alcotest.(check bool) "parallel cached = sequential uncached" true
        (a.norm = b.norm && a.mean_flow = b.mean_flow && a.max_flow = b.max_flow
        && a.events = b.events))
    seq par;
  let s = Cache.stats () in
  Alcotest.(check int) "three keys" 3 s.size;
  (* Racing domains may duplicate a computation, but hits + misses always
     add up to one count per lookup. *)
  Alcotest.(check int) "every lookup counted" (List.length tasks) (s.hits + s.misses)

(* ------------------------------------------------------------------ *)
(* Sweep probe memo                                                    *)
(* ------------------------------------------------------------------ *)

let test_sweep_probe_memo () =
  let calls = ref 0 in
  let f s =
    incr calls;
    10. /. s
  in
  let iters = 16 in
  (match Sweep.min_speed_for ~f ~threshold:2.5 ~lo:1. ~hi:8. ~iters () with
  | Ok s -> Alcotest.(check bool) "crossover near 4" true (Float.abs (s -. 4.) < 0.01)
  | Error _ -> Alcotest.fail "expected a crossover");
  Alcotest.(check bool)
    (Printf.sprintf "at most iters+1 evaluations (got %d)" !calls)
    true
    (!calls <= iters + 1)

let test_run_config_new_defaults () =
  Alcotest.(check bool) "auto engine by default" true (Run.default.Run.engine = `Auto);
  Alcotest.(check bool) "cache on by default" true Run.default.Run.cache;
  let cfg = Run.config ~engine:`General ~cache:false () in
  Alcotest.(check bool) "explicit engine respected" true (cfg.Run.engine = `General);
  Alcotest.(check bool) "cache off" false cfg.Run.cache;
  (* The string round-trip backing the CLI's --engine option, both ways. *)
  List.iter
    (fun s ->
      match Run.engine_of_string s with
      | Some e ->
          Alcotest.(check string) ("engine round-trip " ^ s) s (Run.engine_to_string e);
          Alcotest.(check bool)
            ("engine_of_string inverts engine_to_string for " ^ s)
            true
            (Run.engine_of_string (Run.engine_to_string e) = Some e)
      | None -> Alcotest.fail ("engine_of_string rejected " ^ s))
    Run.engine_strings;
  (* Unknown spellings are rejected, including per-class kernel names:
     "closed" is the one spelling for every class kernel. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " engine string rejected") true (Run.engine_of_string s = None))
    [ "bogus"; "indexed"; "equal-share" ];
  (* `Closed selects exactly what `Auto selects for every classified
     policy, so it shares `Auto's cache keys. *)
  let auto = Run.config () and closed = Run.config ~engine:`Closed () in
  List.iter
    (fun spec ->
      let policy = Registry.make spec in
      let name = policy.Rr_engine.Policy.name in
      Alcotest.(check bool)
        (name ^ ": closed selection = auto selection")
        true
        (Run.selection_for closed policy = Run.selection_for auto policy);
      Alcotest.(check string)
        (name ^ ": closed engine name = auto engine name")
        (Run.engine_name auto policy) (Run.engine_name closed policy))
    (Registry.default_specs ());
  Alcotest.(check int) "every registry policy checked" 13
    (List.length (Registry.default_specs ()))

let test_cache_engine_keys () =
  (* Fast and general runs of the same policy must land under distinct
     cache keys now that non-RR policies also dispatch (before PR 5 both
     srpt configs shared one key — both ran the general loop). *)
  Cache.clear ();
  let srpt = Rr_policies.Srpt.policy in
  let r_fast = Run.measure (Run.config ()) srpt small_inst in
  let r_gen = Run.measure (Run.config ~engine:`General ()) srpt small_inst in
  let s = Cache.stats () in
  Alcotest.(check int) "two distinct keys" 2 s.misses;
  Alcotest.(check int) "no aliasing hit" 0 s.hits;
  Alcotest.(check bool) "engines agree" true (rel_diff r_fast.Run.norm r_gen.Run.norm <= flow_rtol)

(* ------------------------------------------------------------------ *)
(* Golden values                                                       *)
(* ------------------------------------------------------------------ *)

(* The aggregates [Run.measure_stream] reports for the three kernels that
   serve only part of their alive set (LAPS's latest arrivals, MLFQ's
   lowest levels, the hybrid's top m), on both offline-mix shapes of the
   repository benchmark, three seeds, n = 5000, under the closed and the
   live driver: norm, power sum, mean and max flow as exact hex floats,
   then the event count.  Recorded from the kernels that touched every
   alive job on every event; a kernel that skips the unserved jobs must
   reproduce them bit for bit. *)
let golden_shapes =
  [
    ("exp-m1", Rr_workload.Distribution.Exponential { mean = 1. }, 0.9, 1);
    ( "bpareto-m4",
      Rr_workload.Distribution.Bounded_pareto { alpha = 1.5; x_min = 1.; x_max = 1000. },
      0.95,
      4 );
  ]

let golden =
  [
    ( "laps:0.5/exp-m1/11/auto",
      "0x1.c7df2b0f0d7dp+11 0x1.95e586cdc6b5p+23 0x1.69936d7acaa59p+3 0x1.3f17ed226bbd7p+10 9999" );
    ( "laps:0.5/exp-m1/11/live",
      "0x1.c7df2b0f0d7dp+11 0x1.95e586cdc6b5p+23 0x1.69936d7acaa59p+3 0x1.3f17ed226bbd7p+10 10000" );
    ( "laps:0.5/exp-m1/12/auto",
      "0x1.459beb6cef0e9p+11 0x1.9e2542b98565ap+22 0x1.34186b87682efp+3 0x1.2ec110cd51794p+9 9999" );
    ( "laps:0.5/exp-m1/12/live",
      "0x1.459beb6cef0e9p+11 0x1.9e2542b98565ap+22 0x1.34186b87682efp+3 0x1.2ec110cd51794p+9 10000" );
    ( "laps:0.5/exp-m1/13/auto",
      "0x1.1ff8b6f5ce3b2p+11 0x1.43ef9bde236aap+22 0x1.50f605cb25601p+3 0x1.f6758e8b68c2p+8 9999" );
    ( "laps:0.5/exp-m1/13/live",
      "0x1.1ff8b6f5ce3b2p+11 0x1.43ef9bde236aap+22 0x1.50f605cb25601p+3 0x1.f6758e8b68c2p+8 10000" );
    ( "laps:0.5/bpareto-m4/11/auto",
      "0x1.04a6ddd56875bp+13 0x1.09635f5ded2cbp+26 0x1.773a7f2a96eccp+3 0x1.0588f9cea089ep+12 9999" );
    ( "laps:0.5/bpareto-m4/11/live",
      "0x1.04a6ddd56875bp+13 0x1.09635f5ded2cbp+26 0x1.773a7f2a96eccp+3 0x1.0588f9cea089ep+12 10000" );
    ( "laps:0.5/bpareto-m4/12/auto",
      "0x1.ee4bf09c4d797p+11 0x1.dd3495910c5dcp+23 0x1.0c59f8ee747d8p+3 0x1.afbcdee89c83cp+10 9999" );
    ( "laps:0.5/bpareto-m4/12/live",
      "0x1.ee4bf09c4d797p+11 0x1.dd3495910c5dcp+23 0x1.0c59f8ee747d8p+3 0x1.afbcdee89c83cp+10 10000" );
    ( "laps:0.5/bpareto-m4/13/auto",
      "0x1.ecdb14f4a9ed4p+11 0x1.da6d6a04a4bcep+23 0x1.275430c8fca7dp+3 0x1.27ba35ca06df8p+11 9999" );
    ( "laps:0.5/bpareto-m4/13/live",
      "0x1.ecdb14f4a9ed4p+11 0x1.da6d6a04a4bcep+23 0x1.275430c8fca7dp+3 0x1.27ba35ca06df8p+11 10000" );
    ( "mlfq/exp-m1/11/auto",
      "0x1.992d49aba7898p+11 0x1.4700deb4bc70dp+23 0x1.5b914d0eb2ba7p+3 0x1.065856c13a07ep+10 14109" );
    ( "mlfq/exp-m1/11/live",
      "0x1.992d49aba7898p+11 0x1.4700deb4bc70dp+23 0x1.5b914d0eb2ba7p+3 0x1.065856c13a07ep+10 14110" );
    ( "mlfq/exp-m1/12/auto",
      "0x1.2f33733619f73p+11 0x1.671ad5112cdf1p+22 0x1.2db3e1ec88eb3p+3 0x1.10b5fd74766a4p+9 14115" );
    ( "mlfq/exp-m1/12/live",
      "0x1.2f33733619f73p+11 0x1.671ad5112cdf1p+22 0x1.2db3e1ec88eb3p+3 0x1.10b5fd74766a4p+9 14116" );
    ( "mlfq/exp-m1/13/auto",
      "0x1.28b8781659f5ap+11 0x1.57eb1aa0887e4p+22 0x1.55da46706c0dp+3 0x1.e4e00ca9b524p+8 14139" );
    ( "mlfq/exp-m1/13/live",
      "0x1.28b8781659f5ap+11 0x1.57eb1aa0887e4p+22 0x1.55da46706c0dp+3 0x1.e4e00ca9b524p+8 14140" );
    ( "mlfq/bpareto-m4/11/auto",
      "0x1.64a1135cb5195p+12 0x1.f0d0633333c1p+24 0x1.fd99daa1f7c6bp+2 0x1.6cf82c9d8416ap+11 18774" );
    ( "mlfq/bpareto-m4/11/live",
      "0x1.64a1135cb5195p+12 0x1.f0d0633333c1p+24 0x1.fd99daa1f7c6bp+2 0x1.6cf82c9d8416ap+11 18775" );
    ( "mlfq/bpareto-m4/12/auto",
      "0x1.15999c0a96204p+11 0x1.2d05c7dacca63p+22 0x1.7437559269388p+2 0x1.bfd15a190bddcp+9 18819" );
    ( "mlfq/bpareto-m4/12/live",
      "0x1.15999c0a96204p+11 0x1.2d05c7dacca63p+22 0x1.7437559269388p+2 0x1.bfd15a190bddcp+9 18820" );
    ( "mlfq/bpareto-m4/13/auto",
      "0x1.94063041d32p+10 0x1.3ed1c43b0745dp+21 0x1.75a1a6438e87dp+2 0x1.5ae9834fd97a8p+9 18811" );
    ( "mlfq/bpareto-m4/13/live",
      "0x1.94063041d32p+10 0x1.3ed1c43b0745dp+21 0x1.75a1a6438e87dp+2 0x1.5ae9834fd97a8p+9 18812" );
    ( "hybrid:3/exp-m1/11/auto",
      "0x1.223aa35a57fb5p+10 0x1.4908e7871c817p+20 0x1.3fb04b372e3adp+3 0x1.1f929f6f2b98p+6 12636" );
    ( "hybrid:3/exp-m1/11/live",
      "0x1.223aa35a57fb5p+10 0x1.4908e7871c817p+20 0x1.3fb04b372e3adp+3 0x1.1f929f6f2b98p+6 12637" );
    ( "hybrid:3/exp-m1/12/auto",
      "0x1.bad74711acc65p+9 0x1.7f060b38be03fp+19 0x1.06ddb93add6c5p+3 0x1.510eaf3bd8ep+5 12498" );
    ( "hybrid:3/exp-m1/12/live",
      "0x1.bad74711acc65p+9 0x1.7f060b38be03fp+19 0x1.06ddb93add6c5p+3 0x1.510eaf3bd8ep+5 12499" );
    ( "hybrid:3/exp-m1/13/auto",
      "0x1.f4b7d4a3a9929p+9 0x1.e9af4d5080803p+19 0x1.3bb83214710a8p+3 0x1.b33a7f95b4e54p+5 13017" );
    ( "hybrid:3/exp-m1/13/live",
      "0x1.f4b7d4a3a9929p+9 0x1.e9af4d5080803p+19 0x1.3bb83214710a8p+3 0x1.b33a7f95b4e54p+5 13018" );
    ( "hybrid:3/bpareto-m4/11/auto",
      "0x1.3970ac1b4f5b3p+12 0x1.7fc4b671d3a72p+24 0x1.020a999e65c6cp+5 0x1.5ef1af77cfcfcp+11 12189" );
    ( "hybrid:3/bpareto-m4/11/live",
      "0x1.3970ac1b4f5b3p+12 0x1.7fc4b671d3a72p+24 0x1.020a999e65c6cp+5 0x1.5ef1af77cfcfcp+11 12190" );
    ( "hybrid:3/bpareto-m4/12/auto",
      "0x1.7b4acbe9754c1p+10 0x1.18fb46cfe3599p+21 0x1.5d4960410b145p+2 0x1.be276febe400cp+9 10261" );
    ( "hybrid:3/bpareto-m4/12/live",
      "0x1.7b4acbe9754c1p+10 0x1.18fb46cfe3599p+21 0x1.5d4960410b145p+2 0x1.be276febe400cp+9 10262" );
    ( "hybrid:3/bpareto-m4/13/auto",
      "0x1.0e96439fdbd1cp+10 0x1.1e014ed884e12p+20 0x1.3385ce108fd55p+2 0x1.6d2df8a4eabe8p+8 10232" );
    ( "hybrid:3/bpareto-m4/13/live",
      "0x1.0e96439fdbd1cp+10 0x1.1e014ed884e12p+20 0x1.3385ce108fd55p+2 0x1.6d2df8a4eabe8p+8 10233" );
  ]

(* The same aggregates for RR, SRPT and SETF, recorded before their
   kernels handed completions over through a flat log rather than a
   closure, and before their admissions stopped allocating: the change
   must reproduce every one bit for bit. *)
let golden_flat =
  [
    ( "rr/exp-m1/11/auto",
      "0x1.85255307a55f3p+10 0x1.27c539e32bdb8p+21 0x1.5b7d374a198abp+3 0x1.0f123663647d8p+8 9999" );
    ( "rr/exp-m1/11/live",
      "0x1.85255307a55f3p+10 0x1.27c539e32bdb8p+21 0x1.5b7d374a198abp+3 0x1.0f123663647d8p+8 10000" );
    ( "rr/exp-m1/12/auto",
      "0x1.2d0ff9687ea2cp+10 0x1.620e917ee7061p+20 0x1.26dc7dcd57a1cp+3 0x1.4754f02001bd8p+7 9999" );
    ( "rr/exp-m1/12/live",
      "0x1.2d0ff9687ea2cp+10 0x1.620e917ee7061p+20 0x1.26dc7dcd57a1cp+3 0x1.4754f02001bd8p+7 10000" );
    ( "rr/exp-m1/13/auto",
      "0x1.527b473abcb17p+10 0x1.bf89c374a0879p+20 0x1.59c99f860ead8p+3 0x1.5e29ea3d633d8p+7 9999" );
    ( "rr/exp-m1/13/live",
      "0x1.527b473abcb17p+10 0x1.bf89c374a0879p+20 0x1.59c99f860ead8p+3 0x1.5e29ea3d633d8p+7 10000" );
    ( "rr/bpareto-m4/11/auto",
      "0x1.4845f5cace6ffp+12 0x1.a4f358f61c4fep+24 0x1.5a55849afc0f6p+4 0x1.61fea672e0096p+11 9999" );
    ( "rr/bpareto-m4/11/live",
      "0x1.4845f5cace6ffp+12 0x1.a4f358f61c4fep+24 0x1.5a55849afc0f6p+4 0x1.61fea672e0096p+11 10000" );
    ( "rr/bpareto-m4/12/auto",
      "0x1.ec3a08f588eaep+10 0x1.d9378fcbeaec9p+21 0x1.3458e84e09c58p+3 0x1.a1429b2ddcebcp+9 9999" );
    ( "rr/bpareto-m4/12/live",
      "0x1.ec3a08f588eaep+10 0x1.d9378fcbeaec9p+21 0x1.3458e84e09c58p+3 0x1.a1429b2ddcebcp+9 10000" );
    ( "rr/bpareto-m4/13/auto",
      "0x1.486bd29a35d8ep+10 0x1.a5547914e4261p+20 0x1.1178559ddc847p+3 0x1.792ec9492e958p+8 9999" );
    ( "rr/bpareto-m4/13/live",
      "0x1.486bd29a35d8ep+10 0x1.a5547914e4261p+20 0x1.1178559ddc847p+3 0x1.792ec9492e958p+8 10000" );
    ( "srpt/exp-m1/11/auto",
      "0x1.5e75fa61982e2p+10 0x1.dfc6cf01ae35fp+20 0x1.ddd94f0b6105ep+1 0x1.29ca6d531b6e8p+9 9999" );
    ( "srpt/exp-m1/11/live",
      "0x1.5e75fa61982e2p+10 0x1.dfc6cf01ae35fp+20 0x1.ddd94f0b6105ep+1 0x1.29ca6d531b6e8p+9 10000" );
    ( "srpt/exp-m1/12/auto",
      "0x1.0f3e8a5ea4d8dp+10 0x1.1f65783bb1a51p+20 0x1.af222e1db7ad9p+1 0x1.bbd055b7106b8p+8 9999" );
    ( "srpt/exp-m1/12/live",
      "0x1.0f3e8a5ea4d8dp+10 0x1.1f65783bb1a51p+20 0x1.af222e1db7ad9p+1 0x1.bbd055b7106b8p+8 10000" );
    ( "srpt/exp-m1/13/auto",
      "0x1.0c0084a33ceecp+10 0x1.189115b60c4cbp+20 0x1.e8c743615a813p+1 0x1.79211e73de9b8p+8 9999" );
    ( "srpt/exp-m1/13/live",
      "0x1.0c0084a33ceecp+10 0x1.189115b60c4cbp+20 0x1.e8c743615a813p+1 0x1.79211e73de9b8p+8 10000" );
    ( "srpt/bpareto-m4/11/auto",
      "0x1.118ae251da16bp+12 0x1.2449820b5b782p+24 0x1.71f541559dda5p+2 0x1.75e56fc2a5e2ap+11 9999" );
    ( "srpt/bpareto-m4/11/live",
      "0x1.118ae251da16bp+12 0x1.2449820b5b782p+24 0x1.71f541559dda5p+2 0x1.75e56fc2a5e2ap+11 10000" );
    ( "srpt/bpareto-m4/12/auto",
      "0x1.89487ab0e3beap+10 0x1.2e17ce9c2cc63p+21 0x1.1bb3be125ad08p+2 0x1.cb8612e2a5d3cp+9 9999" );
    ( "srpt/bpareto-m4/12/live",
      "0x1.89487ab0e3beap+10 0x1.2e17ce9c2cc63p+21 0x1.1bb3be125ad08p+2 0x1.cb8612e2a5d3cp+9 10000" );
    ( "srpt/bpareto-m4/13/auto",
      "0x1.32bcde750f009p+10 0x1.6f880f27551a9p+20 0x1.17a197bf17772p+2 0x1.55151cbf496c4p+9 9999" );
    ( "srpt/bpareto-m4/13/live",
      "0x1.32bcde750f009p+10 0x1.6f880f27551a9p+20 0x1.17a197bf17772p+2 0x1.55151cbf496c4p+9 10000" );
    ( "setf/exp-m1/11/auto",
      "0x1.c357bc12e3c0cp+11 0x1.8ddf1f5df6bddp+23 0x1.5f789809d5ae9p+3 0x1.29d7a92a7b1f1p+10 12549" );
    ( "setf/exp-m1/11/live",
      "0x1.c357bc12e3c0cp+11 0x1.8ddf1f5df6bddp+23 0x1.5f789809d5ae9p+3 0x1.29d7a92a7b1f1p+10 12550" );
    ( "setf/exp-m1/12/auto",
      "0x1.58ee1ea732677p+11 0x1.d0c0cfde5a036p+22 0x1.3565ab65fcdd1p+3 0x1.10b5fd74766aap+9 12467" );
    ( "setf/exp-m1/12/live",
      "0x1.58ee1ea732677p+11 0x1.d0c0cfde5a036p+22 0x1.3565ab65fcdd1p+3 0x1.10b5fd74766aap+9 12468" );
    ( "setf/exp-m1/13/auto",
      "0x1.31b6f7e8d3bebp+11 0x1.6d157d7e37ac9p+22 0x1.4f2aedda29bf1p+3 0x1.e5552545093bp+8 12605" );
    ( "setf/exp-m1/13/live",
      "0x1.31b6f7e8d3bebp+11 0x1.6d157d7e37ac9p+22 0x1.4f2aedda29bf1p+3 0x1.e5552545093bp+8 12606" );
    ( "setf/bpareto-m4/11/auto",
      "0x1.6304c940b7a31p+12 0x1.ec564640658aap+24 0x1.f909b204960b2p+2 0x1.6d2268a62a1ep+11 11144" );
    ( "setf/bpareto-m4/11/live",
      "0x1.6304c940b7a31p+12 0x1.ec564640658aap+24 0x1.f909b204960b2p+2 0x1.6d2268a62a1ep+11 11145" );
    ( "setf/bpareto-m4/12/auto",
      "0x1.1612299ff705fp+11 0x1.2e0b73b14dc45p+22 0x1.748a186067c98p+2 0x1.c04f4dd87f58cp+9 11195" );
    ( "setf/bpareto-m4/12/live",
      "0x1.1612299ff705fp+11 0x1.2e0b73b14dc45p+22 0x1.748a186067c98p+2 0x1.c04f4dd87f58cp+9 11196" );
    ( "setf/bpareto-m4/13/auto",
      "0x1.96b428ac95039p+10 0x1.430ff7e650e7ap+21 0x1.74ba99528ee9fp+2 0x1.5a99e131cb4ap+9 11226" );
    ( "setf/bpareto-m4/13/live",
      "0x1.96b428ac95039p+10 0x1.430ff7e650e7ap+21 0x1.74ba99528ee9fp+2 0x1.5a99e131cb4ap+9 11227" );
  ]

let check_golden golden specs =
  List.iter
    (fun spec ->
      let policy =
        match Registry.spec_of_string spec with
        | Ok s -> Registry.make s
        | Error msg -> Alcotest.fail msg
      in
      List.iter
        (fun (label, sizes, load, machines) ->
          List.iter
            (fun seed ->
              let stream =
                Instance.Stream.generate_load ~seed ~sizes ~load ~machines ~n:5000 ()
              in
              List.iter
                (fun (ename, engine) ->
                  let key = Printf.sprintf "%s/%s/%d/%s" spec label seed ename in
                  let r =
                    Run.measure_stream (Run.config ~machines ~engine ~cache:false ()) policy stream
                  in
                  Alcotest.(check string)
                    key (List.assoc key golden)
                    (Printf.sprintf "%h %h %h %h %d" r.Run.norm r.power_sum r.mean_flow
                       r.max_flow r.events))
                [ ("auto", `Auto); ("live", `Live) ])
            [ 11; 12; 13 ])
        golden_shapes)
    specs

let test_golden_values () = check_golden golden [ "laps:0.5"; "mlfq"; "hybrid:3" ]
let test_golden_flat () = check_golden golden_flat [ "rr"; "srpt"; "setf" ]

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    ([
       prop_equal_share_matches_general;
       prop_run_dispatch_matches_general;
       prop_fast_path_inert_for_unclassified;
     ]
    @ engine_props)
  @ [ Mlfq_knife.to_alcotest ~seed:20150601 prop_mlfq_knife_edge ]

let () =
  Alcotest.run "rr_simcore"
    [
      ( "differential",
        qsuite
        @ [
            Alcotest.test_case "trace equivalence" `Quick test_equal_share_trace;
            Alcotest.test_case "edge corpus, every engine" `Quick test_edge_corpus;
            Alcotest.test_case "zero-length event (setf)" `Quick test_zero_length_event;
            Alcotest.test_case "zero-length event (general loop)" `Quick
              test_zero_length_event_general;
            Alcotest.test_case "born-complete job outside the LAPS window" `Quick
              test_born_complete_outside_laps_window;
            Alcotest.test_case "tiny newcomer that waits, every class" `Quick
              test_tiny_waiting_newcomer;
            Alcotest.test_case "fast engine traces" `Quick test_fast_engine_traces;
          ] );
      ( "engine",
        [
          Alcotest.test_case "classifier" `Quick test_engine_classifier;
          Alcotest.test_case "cache keys per engine" `Quick test_cache_engine_keys;
        ] );
      ( "golden",
        [
          Alcotest.test_case "laps, mlfq and hybrid aggregates" `Quick test_golden_values;
          Alcotest.test_case "rr, srpt and setf aggregates" `Quick test_golden_flat;
        ] );
      ("digest", [ Alcotest.test_case "structural" `Quick test_digest ]);
      ( "cache",
        [
          Alcotest.test_case "hit/miss accounting" `Quick test_cache_hit_miss;
          Alcotest.test_case "config sensitivity" `Quick test_cache_config_sensitivity;
          Alcotest.test_case "disabled" `Quick test_cache_disabled;
          Alcotest.test_case "flows uncached" `Quick test_flows_uncached;
          Alcotest.test_case "capacity" `Quick test_cache_capacity;
          Alcotest.test_case "under pool" `Quick test_cache_under_pool;
        ] );
      ( "config",
        [
          Alcotest.test_case "sweep probe memo" `Quick test_sweep_probe_memo;
          Alcotest.test_case "defaults" `Quick test_run_config_new_defaults;
        ] );
    ]
