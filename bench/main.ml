(* Benchmark harness: regenerates every table and figure of the evaluation
   suite (see DESIGN.md section 3 and EXPERIMENTS.md) on a domain pool,
   then runs the B1 micro-benchmarks measuring the throughput of the
   substrates, the B2 pool benchmark measuring Run.batch speedup over
   sequential execution at 2 and 4 domains (scaled task set) plus the
   chunking effect on a small-task batch, the B3 simulation-core
   benchmark comparing the general event loop against the closed-form
   equal-share engine and a cold sweep against a cached one, the B4
   streaming benchmark comparing the sink pipeline against
   materialize-and-measure (jobs/sec, allocated words, peak live heap),
   the B5 fast-path benchmark measuring each classified engine (the
   priority-index and cascade kernels SRPT, SJF, FCFS, SETF plus the
   class-layer additions laps, mlfq, wrr-age, hdf and the starvation
   hybrid) against the general loop plus one cold end-to-end
   Ratio.vs_baseline, and the B6 live-engine
   benchmark driving every incremental core (Engine.Live) through the
   submit-one/advance feed rr_cli serve uses, gating sequential
   throughput (>= 1M events/s at full scale), <= 1e-9 agreement and the
   feed's allocated words per job, and
   the B7 certified-bound benchmark gating the sparse LP network against
   the frozen dense lp-bound-n40 baseline (>= 25x, equal value), warm
   resolves against cold solves (<= 1e-9), and the wall-clock of a
   certified ratio curve up to n = 2000, and the B8 serving benchmark
   driving a live rr_cli-serve daemon over its Unix socket with the
   loadgen client, gating the binary framed protocol (>= 500k events/s
   at full scale, >= 10x over the text line protocol) and requiring the
   socket-fed STATS to match an in-process replay of the same feed to
   <= 1e-9 (bit-identical in practice).

   Machine-readable results land in BENCH_simcore.json, BENCH_pool.json,
   BENCH_stream.json, BENCH_fastpaths.json, BENCH_live.json,
   BENCH_bound.json and
   BENCH_serve.json next to the text report.  The process exits non-zero when B3's differential
   check — the two engines must agree on every flow time — fails, when a
   B2 parallel batch is not bit-identical to the sequential one or
   misses its speedup gate (>= 1.2x at 2 domains, >= 1.8x at 4; each
   domain-count gate is skipped, and recorded as skipped, when the
   machine has fewer CPUs than the point needs), when B4's
   allocation/peak-heap/agreement gates fail, or when a B5 engine or B6
   live core misses its perf floor or its <= 1e-9
   differential-agreement gate, or a B5 engine's streamed path or a B6
   live feed allocates more words per job than its ceiling, or when B8
   misses a throughput gate or its socket-vs-in-process agreement, so
   CI can gate on them.

   Usage: dune exec bench/main.exe [-- --quick] [-- --jobs N]
   (RR_JOBS is honoured when --jobs is absent; default: all cores.)  *)

open Rr_util
module Pool = Temporal_fairness.Pool
module Run = Temporal_fairness.Run
module Cache = Temporal_fairness.Cache
module Sweep = Temporal_fairness.Sweep
module Ratio = Temporal_fairness.Ratio
module Simulator = Rr_engine.Simulator

let scale =
  if Array.exists (String.equal "--quick") Sys.argv then Temporal_fairness.Experiments.Quick
  else Temporal_fairness.Experiments.Full

let quick = match scale with Temporal_fairness.Experiments.Quick -> true | Full -> false

let domains =
  let from_argv =
    let n = Array.length Sys.argv in
    let rec find i =
      if i >= n - 1 then None
      else if String.equal Sys.argv.(i) "--jobs" then int_of_string_opt Sys.argv.(i + 1)
      else find (i + 1)
    in
    find 0
  in
  match from_argv with
  | Some j when j >= 1 -> j
  | Some _ -> Pool.recommended_domains ()
  | None -> (
      match Pool.env_domains () with Some j -> j | None -> Pool.recommended_domains ())

let run_experiments pool =
  let t0 = Unix.gettimeofday () in
  List.iter Table.print (Temporal_fairness.Experiments.all ~pool scale);
  Printf.printf "(experiment suite completed in %.1f s on %d domain(s))\n\n%!"
    (Unix.gettimeofday () -. t0)
    (Pool.size pool)

(* ------------------------------------------------------------------ *)
(* B1: micro-benchmarks                                                *)
(* ------------------------------------------------------------------ *)

let bench_instance =
  let rng = Prng.create ~seed:42 in
  Rr_workload.Instance.generate_load ~rng
    ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
    ~load:0.9 ~machines:1 ~n:1000 ()

let small_instance =
  let rng = Prng.create ~seed:43 in
  Rr_workload.Instance.generate_load ~rng
    ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
    ~load:0.9 ~machines:1 ~n:40 ()

let tests =
  let open Bechamel in
  Test.make_grouped ~name:"B1" ~fmt:"%s %s"
    [
      Test.make ~name:"rr-simulate-n1000"
        (Staged.stage (fun () ->
             ignore
               (Run.simulate (Run.config ~speed:2. ()) Rr_policies.Round_robin.policy
                  bench_instance)));
      Test.make ~name:"srpt-simulate-n1000"
        (Staged.stage (fun () ->
             ignore (Run.simulate Run.default Rr_policies.Srpt.policy bench_instance)));
      Test.make ~name:"lp-bound-n40"
        (Staged.stage (fun () ->
             ignore
               (Rr_lp.Lp_bound.opt_power_lower_bound ~k:2 ~machines:1 ~delta:0.5
                  small_instance)));
      Test.make ~name:"dualfit-certify-n40"
        (Staged.stage (fun () ->
             let res =
               Run.simulate
                 (Run.config ~speed:4.4 ~record_trace:true ())
                 Rr_policies.Round_robin.policy small_instance
             in
             ignore (Rr_dualfit.Certificate.certify ~k:2 res)));
    ]

(* Returns (name, ns/run) rows for the JSON report. *)
let run_microbench () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with Some (t :: _) -> Some t | _ -> None
        in
        (name, ns) :: acc)
      results []
    (* Hashtbl.fold order is unspecified; sort so the table (and the JSON)
       is stable run to run. *)
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let table =
    Table.create ~title:"B1: substrate micro-benchmarks" ~columns:[ "benchmark"; "time/run" ]
  in
  List.iter
    (fun (name, ns) ->
      let cell =
        match ns with
        | Some t ->
            if t >= 1e9 then Printf.sprintf "%.3f s" (t /. 1e9)
            else if t >= 1e6 then Printf.sprintf "%.3f ms" (t /. 1e6)
            else Printf.sprintf "%.1f us" (t /. 1e3)
        | None -> "n/a"
      in
      Table.add_row table [ name; cell ])
    rows;
  Table.print table;
  rows

(* ------------------------------------------------------------------ *)
(* B2: pool scaling and chunking (BENCH_pool.json)                     *)
(* ------------------------------------------------------------------ *)

type b2_point = {
  p_domains : int;
  p_auto_s : float;
  p_fixed1_s : float;
  p_identical : bool;
  p_gate_min : float;
  p_gate_skipped : bool;  (* machine has fewer CPUs than the point needs *)
  p_minor_heap_words : int;
  p_gc : Pool.gc_delta array;  (* per participant, for the auto-chunked run *)
}

type b2_small = {
  sm_tasks : int;
  sm_seq_s : float;
  sm_auto_s : float;
  sm_fixed1_s : float;
  sm_identical : bool;
}

type b2_report = {
  b2_cpus : int;
  b2_tasks : int;
  b2_jobs_per_instance : int;
  b2_seq_s : float;
  b2_points : b2_point list;
  b2_small : b2_small;
  b2_failures : string list;
}

let same_results seq par =
  List.length seq = List.length par
  && List.for_all2
       (fun (a : Run.result) (b : Run.result) ->
         a.norm = b.norm && a.power_sum = b.power_sum && a.mean_flow = b.mean_flow
         && a.max_flow = b.max_flow && a.n = b.n && a.events = b.events)
       seq par

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let b2_tasks_of ~n_insts ~n ~seed0 =
  let policies =
    [ Rr_policies.Round_robin.policy; Rr_policies.Srpt.policy; Rr_policies.Fcfs.policy ]
  in
  let insts =
    List.init n_insts (fun i ->
        let rng = Prng.create ~seed:(seed0 + i) in
        Rr_workload.Instance.generate_load ~rng
          ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
          ~load:0.9 ~machines:1 ~n ())
  in
  List.concat_map (fun inst -> List.map (fun p -> (p, inst)) policies) insts

(* Speed-sweep-shaped workloads — many independent (policy, instance)
   simulate-and-measure tasks — run once sequentially and once through
   Run.batch per pool size.  Every comparison measures the wall-clock
   speedup AND machine-checks the determinism guarantee (parallel results
   bit-identical to sequential).  Caching and the equal-share fast path
   are both off: the sequential pass would otherwise hand the parallel
   pass its results for free, and the point here is the pool's scaling on
   the general event loop (B3 measures the fast engine).

   Two workloads, two questions:

   - the SCALED batch (heavy-traffic instances at speed 1, several ms per
     task) asks whether domains scale: its speedups are gated (>= 1.2x at
     2 domains, >= 1.8x at 4) whenever the machine has that many CPUs;
   - the SMALL batch (hundreds of ~100 us tasks — the shape the old B2
     measured at 0.455x) asks whether cost-aware chunking amortises the
     per-task overhead that caused that slowdown; auto vs `Fixed 1 is
     reported, not gated (it is a contrast, not a floor). *)
let run_pool_bench () =
  let cpus = Pool.recommended_domains () in
  let n = if quick then 3000 else 6000 in
  let n_insts = if quick then 8 else 24 in
  let tasks = b2_tasks_of ~n_insts ~n ~seed0:200 in
  let cfg = Run.config ~speed:1. ~cache:false ~engine:`General () in
  let seq, t_seq = time (fun () -> List.map (fun (p, i) -> Run.measure cfg p i) tasks) in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let point domains =
    let gate_min = if domains >= 4 then 1.8 else 1.2 in
    let gate_skipped = cpus < domains in
    let ((par_auto, t_auto), gc_deltas, minor_heap_words), (par_fixed1, t_fixed1) =
      Pool.with_pool ~domains (fun pool ->
          (* Capture the GC deltas right after the auto-chunked run —
             the `Fixed 1 run below would overwrite them. *)
          let auto = time (fun () -> Run.batch pool cfg tasks) in
          let gc = Pool.last_batch_gc_deltas pool in
          ( (auto, gc, Pool.minor_heap_words pool),
            time (fun () -> Run.batch ~chunk:(`Fixed 1) pool cfg tasks) ))
    in
    let identical = same_results seq par_auto && same_results seq par_fixed1 in
    let speedup = t_seq /. Float.max 1e-9 t_auto in
    if not identical then fail "B2: %d-domain batch is not bit-identical to sequential" domains;
    if (not gate_skipped) && speedup < gate_min then
      fail "B2: %d-domain speedup %.2fx below gate %.1fx" domains speedup gate_min;
    Printf.printf
      "B2: scaled batch on %d domain(s): auto %.3f s (%.2fx) | `Fixed 1 %.3f s (%.2fx) | \
       bit-identical: %s%s\n%!"
      domains t_auto speedup t_fixed1
      (t_seq /. Float.max 1e-9 t_fixed1)
      (if identical then "yes" else "NO")
      (if gate_skipped then
         Printf.sprintf " | gate >=%.1fx SKIPPED (%d CPU(s))" gate_min cpus
       else Printf.sprintf " | gate >=%.1fx" gate_min);
    {
      p_domains = domains;
      p_auto_s = t_auto;
      p_fixed1_s = t_fixed1;
      p_identical = identical;
      p_gate_min = gate_min;
      p_gate_skipped = gate_skipped;
      p_minor_heap_words = minor_heap_words;
      p_gc = gc_deltas;
    }
  in
  Printf.printf "B2: scaled batch: %d tasks (n=%d, speed 1, general engine), sequential %.3f s\n%!"
    (List.length tasks) n t_seq;
  let points = List.map point [ 2; 4 ] in
  (* Small-task batch: chunking contrast at 2 domains. *)
  let small_tasks = b2_tasks_of ~n_insts:(if quick then 40 else 80) ~n:120 ~seed0:500 in
  let cfg_small = Run.config ~speed:1. ~cache:false ~engine:`General () in
  let seq_small, t_seq_small =
    time (fun () -> List.map (fun (p, i) -> Run.measure cfg_small p i) small_tasks)
  in
  let (par_auto, t_auto_small), (par_f1, t_f1_small) =
    Pool.with_pool ~domains:2 (fun pool ->
        ( time (fun () -> Run.batch pool cfg_small small_tasks),
          time (fun () -> Run.batch ~chunk:(`Fixed 1) pool cfg_small small_tasks) ))
  in
  let sm_identical = same_results seq_small par_auto && same_results seq_small par_f1 in
  if not sm_identical then fail "B2: small-task batch is not bit-identical to sequential";
  Printf.printf
    "B2: small batch (%d tasks, n=120) on 2 domains: sequential %.3f s | auto-chunked %.3f s \
     (%.2fx) | `Fixed 1 %.3f s (%.2fx) | bit-identical: %s\n%!"
    (List.length small_tasks) t_seq_small t_auto_small
    (t_seq_small /. Float.max 1e-9 t_auto_small)
    t_f1_small
    (t_seq_small /. Float.max 1e-9 t_f1_small)
    (if sm_identical then "yes" else "NO");
  {
    b2_cpus = cpus;
    b2_tasks = List.length tasks;
    b2_jobs_per_instance = n;
    b2_seq_s = t_seq;
    b2_points = points;
    b2_small =
      {
        sm_tasks = List.length small_tasks;
        sm_seq_s = t_seq_small;
        sm_auto_s = t_auto_small;
        sm_fixed1_s = t_f1_small;
        sm_identical;
      };
    b2_failures = List.rev !failures;
  }

let pool_json_file = "BENCH_pool.json"

let write_pool_json (b2 : b2_report) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"bench_pool/v3\",\n";
  add "  \"scale\": %S,\n" (if quick then "quick" else "full");
  add "  \"cpus\": %d,\n" b2.b2_cpus;
  add "  \"scaled\": {\n";
  add "    \"tasks\": %d, \"jobs_per_instance\": %d, \"sequential_s\": %.6f,\n"
    b2.b2_tasks b2.b2_jobs_per_instance b2.b2_seq_s;
  add "    \"points\": [\n";
  List.iteri
    (fun i p ->
      add
        "      {\"domains\": %d, \"auto_s\": %.6f, \"speedup\": %.3f, \"fixed1_s\": %.6f, \
         \"speedup_fixed1\": %.3f, \"bit_identical\": %b, \"gate_min_speedup\": %.1f, \
         \"gate_skipped\": %b,\n"
        p.p_domains p.p_auto_s
        (b2.b2_seq_s /. Float.max 1e-9 p.p_auto_s)
        p.p_fixed1_s
        (b2.b2_seq_s /. Float.max 1e-9 p.p_fixed1_s)
        p.p_identical p.p_gate_min p.p_gate_skipped;
      add "       \"minor_heap_words\": %d, \"gc_deltas\": [" p.p_minor_heap_words;
      Array.iteri
        (fun j (g : Pool.gc_delta) ->
          add
            "%s{\"participant\": %d, \"minor_words\": %.0f, \"promoted_words\": %.0f, \
             \"minor_collections\": %d, \"major_collections\": %d}"
            (if j = 0 then "" else ", ")
            g.Pool.participant g.Pool.minor_words g.Pool.promoted_words
            g.Pool.minor_collections g.Pool.major_collections)
        p.p_gc;
      add "]}%s\n" (if i = List.length b2.b2_points - 1 then "" else ","))
    b2.b2_points;
  add "    ]\n";
  add "  },\n";
  let s = b2.b2_small in
  add
    "  \"small\": {\"tasks\": %d, \"sequential_s\": %.6f, \"auto_s\": %.6f, \"auto_speedup\": \
     %.3f, \"fixed1_s\": %.6f, \"fixed1_speedup\": %.3f, \"bit_identical\": %b},\n"
    s.sm_tasks s.sm_seq_s s.sm_auto_s
    (s.sm_seq_s /. Float.max 1e-9 s.sm_auto_s)
    s.sm_fixed1_s
    (s.sm_seq_s /. Float.max 1e-9 s.sm_fixed1_s)
    s.sm_identical;
  add "  \"failures\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "%S") b2.b2_failures));
  add "  \"ok\": %b\n" (b2.b2_failures = []);
  add "}\n";
  let oc = open_out pool_json_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "(wrote %s)\n%!" pool_json_file

(* ------------------------------------------------------------------ *)
(* B3: simulation core — fast path and result cache                    *)
(* ------------------------------------------------------------------ *)

type b3_report = {
  sim_general_ns : float;
  sim_fast_ns : float;
  sim_max_rel_diff : float;
  sim_rtol : float;
  sim_agree : bool;
  sweep_probes : int;
  sweep_cold_s : float;
  sweep_opt_s : float;
  sweep_hits : int;
  sweep_misses : int;
  sweep_same_answer : bool;
}

(* The two engines must produce the same flow times up to rounding.  The
   tolerance is deliberately tight: the engines compute identical
   event-by-event trajectories in different arithmetic orders, so anything
   beyond accumulated rounding is a real divergence. *)
let diff_rtol = 1e-9

let time_per_run reps f =
  for _ = 1 to 3 do
    f ()
  done;
  (* Best-of-3 batch means: the min is far more stable under scheduler
     jitter than a single long mean, which is what the perf gates need. *)
  let batch () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. Float.of_int reps
  in
  let best = ref (batch ()) in
  for _ = 2 to 3 do
    best := Float.min !best (batch ())
  done;
  !best

let run_simcore_bench () =
  let jobs = Rr_workload.Instance.jobs bench_instance in
  (* Speed 1.0 is the regime the fast path exists for: heavy traffic, large
     alive sets, many events.  (At speed 2 the system drains and both
     engines are cheap.) *)
  let general () = Simulator.run ~machines:1 ~policy:Rr_policies.Round_robin.policy jobs in
  let fast () = Simulator.run_class ~machines:1 Rr_engine.Policy_class.Equal_share jobs in
  let fg = Simulator.flows (general ()) and ff = Simulator.flows (fast ()) in
  let max_rel = ref 0. in
  Array.iteri
    (fun i g -> max_rel := Float.max !max_rel (Float.abs (g -. ff.(i)) /. Float.abs g))
    fg;
  let agree = Array.length fg = Array.length ff && !max_rel <= diff_rtol in
  let reps = if quick then 30 else 200 in
  let general_ns = time_per_run reps (fun () -> ignore (general ())) in
  let fast_ns = time_per_run reps (fun () -> ignore (fast ())) in
  Printf.printf
    "B3: rr-simulate-n1000 (speed 1.0): general %.3f ms | equal-share %.3f ms | speedup \
     %.1fx\n\
    \    differential: max relative flow diff %.2e (rtol %.0e) -> %s\n%!"
    (general_ns /. 1e6) (fast_ns /. 1e6)
    (general_ns /. Float.max 1. fast_ns)
    !max_rel diff_rtol
    (if agree then "agree" else "DISAGREE");
  (* A 20-probe crossover search, the workload the cache exists for: every
     probe re-measures the SRPT baseline (identical across probes) and the
     optimized config additionally runs RR on the equal-share engine.  Both
     searches start from a cold cache. *)
  let iters = 20 in
  let search cfg =
    Sweep.min_speed_for
      ~f:(fun speed -> Ratio.vs_baseline { cfg with Run.speed } Rr_policies.Round_robin.policy bench_instance)
      ~threshold:1.5 ~lo:1. ~hi:8. ~iters ()
  in
  let timed cfg =
    Cache.clear ();
    let t0 = Unix.gettimeofday () in
    let r = search cfg in
    (r, Unix.gettimeofday () -. t0)
  in
  let r_cold, t_cold = timed (Run.config ~engine:`General ~cache:false ()) in
  let r_opt, t_opt = timed (Run.config ()) in
  let st = Cache.stats () in
  let same_answer =
    match (r_cold, r_opt) with
    | Ok a, Ok b -> Float.abs (a -. b) <= 1e-6 *. Float.max 1. (Float.abs a)
    | Error _, Error _ -> true
    | _ -> false
  in
  let hit_rate =
    let total = st.hits + st.misses in
    if total = 0 then 0. else Float.of_int st.hits /. Float.of_int total
  in
  Printf.printf
    "B3: min_speed_for, %d probes: general+uncached %.3f s | equal-share+cached %.3f s | \
     speedup %.1fx\n\
    \    cache: %d hits / %d misses (hit rate %.0f%%) | same crossover: %s\n%!"
    iters t_cold t_opt
    (t_cold /. Float.max 1e-9 t_opt)
    st.hits st.misses (100. *. hit_rate)
    (if same_answer then "yes" else "NO");
  {
    sim_general_ns = general_ns;
    sim_fast_ns = fast_ns;
    sim_max_rel_diff = !max_rel;
    sim_rtol = diff_rtol;
    sim_agree = agree;
    sweep_probes = iters;
    sweep_cold_s = t_cold;
    sweep_opt_s = t_opt;
    sweep_hits = st.hits;
    sweep_misses = st.misses;
    sweep_same_answer = same_answer;
  }

(* ------------------------------------------------------------------ *)
(* B4: streaming pipeline — throughput and memory vs materialized       *)
(* ------------------------------------------------------------------ *)

type b4_point = {
  b4_n : int;
  b4_stream_s : float;
  b4_stream_alloc_words : float;
  b4_stream_peak_words : int;
  (* (seconds, allocated words, heap growth words, l2 norm) of the
     materialize-then-measure pipeline; None when n is streamed-only. *)
  b4_mat : (float * float * int * float) option;
  b4_rel_diff : float option;
}

type b4_report = { b4_points : b4_point list; b4_failures : string list }

(* The streamed pipeline must stay O(alive): near-zero allocation per job
   and a peak live heap an order of magnitude under the materialized
   pipeline's at the largest size.  After the arena work the raw
   equal-share path allocates ~11 words/job under the release profile
   (the remaining words are the O(log alive) heap-node churn amortised
   per job plus a handful of boxed floats at uninlined call boundaries);
   anything past 16 means a per-job allocation leaked back in.  The gate
   assumes the release profile: the dev profile passes [-opaque], which
   kills cross-module inlining and roughly triples the figure — run the
   bench with [dune exec --profile release]. *)
let b4_max_words_per_job = 16.
let b4_min_peak_ratio = 10.
let b4_rtol = 1e-9

(* Growth ratios divide by the streamed growth, which on a warm heap can
   legitimately be ~0 (the run fits in space freed by earlier phases); the
   floor keeps the ratio finite without hiding real growth. *)
let b4_growth_floor = 4096

let run_stream_bench () =
  let sizes =
    (* (n, also run the materialized pipeline?) — the largest full-scale
       point is streamed-only: ten million materialized jobs is exactly
       the allocation this pipeline exists to avoid. *)
    if quick then [ (10_000, true); (100_000, true) ]
    else [ (100_000, true); (1_000_000, true); (10_000_000, false) ]
  in
  let cfg = Run.config ~speed:2. ~cache:false () in
  let rr = Rr_policies.Round_robin.policy in
  let heap_words () = (Gc.quick_stat ()).Gc.heap_words in
  let point (n, mat_too) =
    let stream =
      Rr_workload.Instance.Stream.generate_load ~seed:77
        ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
        ~load:0.9 ~machines:1 ~n ()
    in
    (* Peaks are measured as heap *growth* above a post-collection
       baseline: Gc.compact is a no-op on this runtime (OCaml < 5.2), so
       absolute heap_words carries every earlier phase's high-water mark.
       Two full majors settle the baseline. *)
    let phase_base () =
      Gc.full_major ();
      Gc.full_major ();
      heap_words ()
    in
    let base = phase_base () in
    let peak = ref 0 in
    let completions = ref 0 in
    let lk = Rr_metrics.Sink.lk ~k:2 () in
    let sink ~id:_ ~arrival:_ ~flow =
      Rr_metrics.Sink.push lk flow;
      incr completions;
      (* Sample the major heap as the run progresses; quick_stat does not
         walk the heap, so the probe is cheap at 1/4096 completions. *)
      if !completions land 4095 = 0 then peak := Int.max !peak (heap_words () - base)
    in
    let bytes0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let (_ : Simulator.summary) = Run.simulate_stream cfg rr stream ~sink in
    let t_stream = Unix.gettimeofday () -. t0 in
    let alloc_stream = (Gc.allocated_bytes () -. bytes0) /. 8. in
    peak := Int.max !peak (heap_words () - base);
    let norm_stream = Rr_metrics.Sink.value lk in
    let peak_stream = !peak in
    let mat =
      if not mat_too then None
      else begin
        let base = phase_base () in
        let bytes0 = Gc.allocated_bytes () in
        let t0 = Unix.gettimeofday () in
        let inst = Rr_workload.Instance.Stream.materialize stream in
        let r = Run.measure cfg rr inst in
        let t_mat = Unix.gettimeofday () -. t0 in
        let alloc_mat = (Gc.allocated_bytes () -. bytes0) /. 8. in
        let peak_mat = heap_words () - base in
        ignore (Sys.opaque_identity inst);
        Some (t_mat, alloc_mat, peak_mat, r.Run.norm)
      end
    in
    {
      b4_n = n;
      b4_stream_s = t_stream;
      b4_stream_alloc_words = alloc_stream;
      b4_stream_peak_words = peak_stream;
      b4_mat = mat;
      b4_rel_diff =
        Option.map
          (fun (_, _, _, norm_mat) ->
            Float.abs (norm_stream -. norm_mat) /. Float.max 1e-300 (Float.abs norm_mat))
          mat;
    }
  in
  let points = List.map point sizes in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun p ->
      let wpj = p.b4_stream_alloc_words /. Float.of_int (Int.max 1 p.b4_n) in
      if wpj > b4_max_words_per_job then
        fail "n=%d: streamed allocation %.1f words/job exceeds %.0f" p.b4_n wpj
          b4_max_words_per_job;
      (match p.b4_rel_diff with
      | Some d when d > b4_rtol ->
          fail "n=%d: streamed and materialized norms differ by %.2e (rtol %.0e)" p.b4_n d
            b4_rtol
      | _ -> ());
      Printf.printf
        "B4: n=%-9d streamed %8.0f jobs/s, %6.1f words/job, heap growth %9d words | %s\n%!"
        p.b4_n
        (Float.of_int p.b4_n /. Float.max 1e-9 p.b4_stream_s)
        wpj p.b4_stream_peak_words
        (match p.b4_mat with
        | None -> "materialized: skipped (streamed-only point)"
        | Some (t, alloc, peak, _) ->
            Printf.sprintf
              "materialized %8.0f jobs/s, %6.1f words/job, heap growth %9d words (%.1fx)"
              (Float.of_int p.b4_n /. Float.max 1e-9 t)
              (alloc /. Float.of_int (Int.max 1 p.b4_n))
              peak
              (Float.of_int peak
              /. Float.of_int (Int.max b4_growth_floor p.b4_stream_peak_words))))
    points;
  (* The memory argument must hold where it matters most: at the largest
     size both pipelines ran, the streamed heap growth must be >= 10x
     smaller than the materialized one. *)
  (match
     List.fold_left
       (fun acc p -> match p.b4_mat with Some _ -> Some p | None -> acc)
       None points
   with
  | Some ({ b4_mat = Some (_, _, peak_mat, _); _ } as p) ->
      let ratio =
        Float.of_int peak_mat /. Float.of_int (Int.max b4_growth_floor p.b4_stream_peak_words)
      in
      if ratio < b4_min_peak_ratio then
        fail "n=%d: materialized heap growth only %.1fx the streamed one (gate %.0fx)" p.b4_n
          ratio b4_min_peak_ratio
  | _ -> ());
  { b4_points = points; b4_failures = List.rev !failures }

let stream_json_file = "BENCH_stream.json"

let write_stream_json (b4 : b4_report) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"bench_stream/v1\",\n";
  add "  \"scale\": %S,\n" (if quick then "quick" else "full");
  add "  \"gates\": {\"max_words_per_job\": %.0f, \"min_peak_ratio\": %.0f, \"rtol\": %.0e},\n"
    b4_max_words_per_job b4_min_peak_ratio b4_rtol;
  add "  \"points\": [\n";
  List.iteri
    (fun i p ->
      add
        "    {\"n\": %d, \"stream\": {\"s\": %.6f, \"jobs_per_s\": %.1f, \"alloc_words\": \
         %.0f, \"words_per_job\": %.2f, \"heap_growth_words\": %d}, \"materialized\": %s, \
         \"rel_norm_diff\": %s}%s\n"
        p.b4_n p.b4_stream_s
        (Float.of_int p.b4_n /. Float.max 1e-9 p.b4_stream_s)
        p.b4_stream_alloc_words
        (p.b4_stream_alloc_words /. Float.of_int (Int.max 1 p.b4_n))
        p.b4_stream_peak_words
        (match p.b4_mat with
        | None -> "null"
        | Some (t, alloc, peak, _) ->
            Printf.sprintf
              "{\"s\": %.6f, \"jobs_per_s\": %.1f, \"alloc_words\": %.0f, \
               \"heap_growth_words\": %d}"
              t
              (Float.of_int p.b4_n /. Float.max 1e-9 t)
              alloc peak)
        (match p.b4_rel_diff with None -> "null" | Some d -> Printf.sprintf "%.3e" d)
        (if i = List.length b4.b4_points - 1 then "" else ","))
    b4.b4_points;
  add "  ],\n";
  add "  \"failures\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "%S") b4.b4_failures));
  add "  \"ok\": %b\n" (b4.b4_failures = []);
  add "}\n";
  let oc = open_out stream_json_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "(wrote %s)\n%!" stream_json_file

(* ------------------------------------------------------------------ *)
(* B5: per-engine fast paths (BENCH_fastpaths.json)                    *)
(* ------------------------------------------------------------------ *)

type b5_engine = {
  e_policy : string;
  e_engine : string;
  e_general_ns : float;
  e_fast_ns : float;
  e_max_rel_diff : float;  (* worst over m in {1, 2, 8} *)
  e_gate_min : float;
  e_words_per_job : float;  (* streamed path, Run.measure_stream *)
  e_max_words : float;
}

type b5_report = {
  b5_n : int;
  b5_engines : b5_engine list;
  b5_ratio_n : int;
  b5_ratio_baseline_s : float;
  b5_ratio_fast_s : float;
  b5_ratio_gate : float;
  b5_ratio_same : bool;
  b5_failures : string list;
}

(* Speedup floors per engine on the n=10^4, rho=0.9, m=1 instance.  SRPT's
   5x is the acceptance gate of the fast-path work; the others are set
   from measured headroom (see EXPERIMENTS.md for typical numbers) with
   ~2x margin so a real regression trips them but scheduler jitter does
   not.  The completion cascades (SJF/FCFS) clear far higher bars than
   the preemptive engines; SETF pays for group maintenance.  The dense
   rate-vector kernels (laps, mlfq, wrr-age) remain O(alive) per event
   like the general loop, but keep every per-job float in flat records,
   so an event allocates nothing, and MLFQ reads a tabled ladder forward
   from each job's cached level instead of re-deriving it from level 0 —
   which is what LAPS's and MLFQ's floors now pin; wrr-age still pays a
   power per job per event and keeps the structural 2x.  All five
   classified additions ride the registry defaults.

   The third column is the allocation ceiling of each engine's streamed
   path ({!Run.measure_stream}: raw cursor -> kernel -> sink folds), the
   B4 measure extended to every closed kernel: ~1.5x the words/job the
   release profile measures (EXPERIMENTS.md; ~16 of them are the sink
   folds' share, as in B4).  A boxed float in a per-event write costs
   two words per job per event per alive job — hundreds of words per job
   for the dense kernels — so it fails the bench while run-to-run noise
   does not.  Like B4's, the ceilings assume the release profile. *)
let b5_cases =
  let classified spec = Rr_policies.Registry.(make spec) in
  [
    (Rr_policies.Srpt.policy, 5.0, 34.);
    (Rr_policies.Sjf.policy, 4.0, 34.);
    (Rr_policies.Fcfs.policy, 5.0, 34.);
    (Rr_policies.Setf.policy, 2.0, 48.);
    (classified (Rr_policies.Registry.Laps 0.5), 2.5, 34.);
    (classified (Rr_policies.Registry.Mlfq 0.5), 2.3, 34.);
    (classified (Rr_policies.Registry.Wrr_age 2), 2.0, 34.);
    (classified (Rr_policies.Registry.Hdf 2.), 2.0, 45.);
    (classified (Rr_policies.Registry.Hybrid 3.), 2.0, 60.);
  ]

(* Allocated words per job on [policy]'s streamed path: one warm-up run
   sizes the domain's arena, then one measured [Run.measure_stream] over
   the same [n]-job stream with the result cache off.  Counted with
   [Gc.minor_words], which includes the minor heap's current fill, as the
   repository benchmark's [offline.*.words_per_job] does: on this runtime
   [Gc.allocated_bytes] only advances at minor collections, so a run
   shorter than the minor heap would read as (almost) free. *)
let streamed_words_per_job (policy : Rr_engine.Policy.t) ~n =
  let stream =
    Rr_workload.Instance.Stream.generate_load ~seed:46
      ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
      ~load:0.9 ~machines:1 ~n ()
  in
  let cfg = Run.config ~cache:false () in
  ignore (Run.measure_stream cfg policy stream : Run.result);
  let words0 = Gc.minor_words () in
  ignore (Run.measure_stream cfg policy stream : Run.result);
  (Gc.minor_words () -. words0) /. Float.of_int n

let b5_ratio_gate = 3.0

let run_fastpath_bench () =
  (* B5 runs after the allocation-heavy bechamel suites; compact so its
     timings measure the engines, not the leftover heap. *)
  Gc.compact ();
  let n = if quick then 2_000 else 10_000 in
  let inst_m1 =
    let rng = Prng.create ~seed:46 in
    Rr_workload.Instance.generate_load ~rng
      ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
      ~load:0.9 ~machines:1 ~n ()
  in
  (* Smaller multi-machine instances: the differential gate must hold for
     m > 1 too, but the timing story is the m = 1 heavy-traffic one. *)
  let inst_of machines =
    if machines = 1 then inst_m1
    else begin
      let rng = Prng.create ~seed:(46 + machines) in
      Rr_workload.Instance.generate_load ~rng
        ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
        ~load:0.9 ~machines ~n:(n / 5) ()
    end
  in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let reps = if quick then 10 else 30 in
  (* Quick mode is a CI smoke on small n and shared runners: the agreement
     gates stay exact, but the speedup floors are halved — fixed per-run
     overheads eat a larger share of a 2k-job simulation, and the
     full-scale floors are what the real bench enforces. *)
  let gate_scale = if quick then 0.5 else 1.0 in
  let engine_point ((policy : Rr_engine.Policy.t), full_gate, max_words) =
    let gate_min = full_gate *. gate_scale in
    let cfg_fast = Run.config ~cache:false () in
    let cfg_gen = Run.config ~cache:false ~engine:`General () in
    let engine = Run.engine_name cfg_fast policy in
    let max_rel = ref 0. in
    List.iter
      (fun machines ->
        let inst = inst_of machines in
        let fg = Run.flows { cfg_gen with Run.machines } policy inst in
        let ff = Run.flows { cfg_fast with Run.machines } policy inst in
        if Array.length fg <> Array.length ff then
          fail "B5: %s m=%d: engines completed different job counts" policy.name machines
        else
          Array.iteri
            (fun i g ->
              max_rel := Float.max !max_rel (Float.abs (g -. ff.(i)) /. Float.abs g))
            fg)
      [ 1; 2; 8 ];
    if !max_rel > diff_rtol then
      fail "B5: %s: max relative flow diff %.2e exceeds rtol %.0e" policy.name !max_rel
        diff_rtol;
    Gc.compact ();
    let general_ns = time_per_run reps (fun () -> ignore (Run.simulate cfg_gen policy inst_m1)) in
    let fast_ns = time_per_run reps (fun () -> ignore (Run.simulate cfg_fast policy inst_m1)) in
    let speedup = general_ns /. Float.max 1. fast_ns in
    if speedup < gate_min then
      fail "B5: %s: speedup %.1fx below gate %.1fx" policy.name speedup gate_min;
    let words = streamed_words_per_job policy ~n in
    if words > max_words then
      fail "B5: %s: streamed allocation %.1f words/job exceeds %.0f" policy.name words
        max_words;
    Printf.printf
      "B5: %-14s n=%d (speed 1.0, m=1): general %7.3f ms | %-15s %7.3f ms | speedup %5.1fx \
       (gate >=%.1fx) | max rel diff %.2e (m in {1,2,8}) | streamed %5.1f words/job (gate \
       <=%.0f)\n%!"
      policy.name n (general_ns /. 1e6) engine (fast_ns /. 1e6) speedup gate_min !max_rel words
      max_words;
    {
      e_policy = policy.name;
      e_engine = engine;
      e_general_ns = general_ns;
      e_fast_ns = fast_ns;
      e_max_rel_diff = !max_rel;
      e_gate_min = gate_min;
      e_words_per_job = words;
      e_max_words = max_words;
    }
  in
  let engines = List.map engine_point b5_cases in
  (* End-to-end: one cold-cache Ratio.vs_baseline (RR at speed 2 vs
     SRPT@1).  The pre-fast-path baseline is reconstructed from the same
     build — RR still on the equal-share engine, but the SRPT baseline on
     the general loop — so the gate isolates exactly what this round of
     engines bought. *)
  let rr = Rr_policies.Round_robin.policy in
  let cfg = Run.config ~speed:2. () in
  Gc.compact ();
  let timed_cold f =
    (* Every run is cold (cache cleared first); best-of-5 wall clocks keep
       the gate from tripping on one unlucky scheduler hiccup. *)
    let once () =
      Cache.clear ();
      let t0 = Unix.gettimeofday () in
      let r = f () in
      (r, Unix.gettimeofday () -. t0)
    in
    let r, t0 = once () in
    let best = ref t0 in
    for _ = 2 to 5 do
      let _, t = once () in
      best := Float.min !best t
    done;
    (r, !best)
  in
  let r_fast, t_fast = timed_cold (fun () -> Ratio.vs_baseline cfg rr inst_m1) in
  let r_base, t_base =
    timed_cold (fun () ->
        let rr_norm = Run.norm cfg rr inst_m1 in
        let srpt_norm =
          Run.norm { cfg with Run.speed = 1.; engine = `General } Rr_policies.Srpt.policy inst_m1
        in
        rr_norm /. srpt_norm)
  in
  let ratio_same = Float.abs (r_fast -. r_base) <= 1e-6 *. Float.max 1. (Float.abs r_base) in
  let ratio_speedup = t_base /. Float.max 1e-9 t_fast in
  if not ratio_same then
    fail "B5: ratio answers differ: fast %.9g vs general-baseline %.9g" r_fast r_base;
  let ratio_gate = b5_ratio_gate *. gate_scale in
  if ratio_speedup < ratio_gate then
    fail "B5: cold vs_baseline speedup %.1fx below gate %.1fx" ratio_speedup ratio_gate;
  Printf.printf
    "B5: Ratio.vs_baseline n=%d cold cache: general-baseline %.3f s | fast %.3f s | speedup \
     %.1fx (gate >=%.1fx) | same answer: %s\n%!"
    n t_base t_fast ratio_speedup ratio_gate
    (if ratio_same then "yes" else "NO");
  {
    b5_n = n;
    b5_engines = engines;
    b5_ratio_n = n;
    b5_ratio_baseline_s = t_base;
    b5_ratio_fast_s = t_fast;
    b5_ratio_gate = ratio_gate;
    b5_ratio_same = ratio_same;
    b5_failures = List.rev !failures;
  }

let fastpaths_json_file = "BENCH_fastpaths.json"

let write_fastpaths_json (b5 : b5_report) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"bench_fastpaths/v3\",\n";
  add "  \"scale\": %S,\n" (if quick then "quick" else "full");
  add "  \"jobs\": %d, \"rtol\": %.0e, \"machines_checked\": [1, 2, 8],\n" b5.b5_n diff_rtol;
  add "  \"engines\": [\n";
  List.iteri
    (fun i e ->
      add
        "    {\"policy\": %S, \"engine\": %S, \"general_ns\": %.1f, \"fast_ns\": %.1f, \
         \"speedup\": %.3f, \"max_rel_flow_diff\": %.3e, \"gate_min_speedup\": %.1f, \
         \"gate_ok\": %b, \"agree\": %b, \"stream_words_per_job\": %.2f, \
         \"gate_max_words_per_job\": %.0f, \"alloc_ok\": %b}%s\n"
        e.e_policy e.e_engine e.e_general_ns e.e_fast_ns
        (e.e_general_ns /. Float.max 1. e.e_fast_ns)
        e.e_max_rel_diff e.e_gate_min
        (e.e_general_ns /. Float.max 1. e.e_fast_ns >= e.e_gate_min)
        (e.e_max_rel_diff <= diff_rtol)
        e.e_words_per_job e.e_max_words
        (e.e_words_per_job <= e.e_max_words)
        (if i = List.length b5.b5_engines - 1 then "" else ","))
    b5.b5_engines;
  add "  ],\n";
  add
    "  \"ratio\": {\"jobs\": %d, \"baseline_s\": %.6f, \"fast_s\": %.6f, \"speedup\": %.3f, \
     \"gate_min_speedup\": %.1f, \"same_answer\": %b},\n"
    b5.b5_ratio_n b5.b5_ratio_baseline_s b5.b5_ratio_fast_s
    (b5.b5_ratio_baseline_s /. Float.max 1e-9 b5.b5_ratio_fast_s)
    b5.b5_ratio_gate b5.b5_ratio_same;
  add "  \"failures\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "%S") b5.b5_failures));
  add "  \"ok\": %b\n" (b5.b5_failures = []);
  add "}\n";
  let oc = open_out fastpaths_json_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "(wrote %s)\n%!" fastpaths_json_file

(* ------------------------------------------------------------------ *)
(* B6: live engine throughput and agreement (BENCH_live.json)          *)
(* ------------------------------------------------------------------ *)

type b6_point = {
  l_spec : string;
  l_events : int;
  l_feed_s : float;
  l_events_per_s : float;
  l_max_rel_diff : float;
  l_gate_eps : float;
  l_words_per_job : float;
  l_max_words : float;
}

type b6_report = {
  b6_n : int;
  b6_points : b6_point list;
  b6_failures : string list;
}

(* Sequential-throughput floors, events per second on the incremental
   feed (submit one job, advance to its arrival, repeat — the rr_cli
   serve pattern).  The acceptance bar of the live-engine work is one
   million events per second; the slot-kernel specs clear it with wide
   margin, the heap-cascade specs (equal-share, SETF) carry more state
   per event and get the bare floor, and the dense rate-vector cores
   (laps, mlfq, wrr-age) touch every alive job per event, so they get
   half of it.

   The third column is the allocation ceiling of the same feed, minor
   words per job, B5's measure applied to the live driver: ~1.5x what
   the release profile measures (EXPERIMENTS.md).  The pending ring and
   the metric folds allocate nothing; what remains is the kernel's own
   per-event churn plus the boxed arrival and flow each completion hands
   to the sink.  A boxed float back on the per-job path costs two words
   per job per update, so it fails the bench while run-to-run noise does
   not.  Like B4's and B5's, the ceilings assume the release profile. *)
let b6_cases =
  List.map
    (fun (spec, gate, max_words) ->
      let policy = Rr_policies.Registry.make spec in
      ( Rr_engine.Live.Classified (Option.get policy.Rr_engine.Policy.klass),
        policy,
        gate,
        max_words ))
    Rr_policies.Registry.
      [
        (Rr, 1.0e6, 9.);
        (Srpt, 1.0e6, 25.);
        (Sjf, 1.0e6, 25.);
        (Fcfs, 1.0e6, 25.);
        (Setf, 1.0e6, 33.);
        (Laps 0.5, 0.5e6, 24.);
        (Mlfq 0.5, 0.5e6, 24.);
        (Wrr_age 2, 0.5e6, 24.);
        (Hybrid 3., 1.0e6, 51.);
      ]

let run_live_bench () =
  Gc.compact ();
  let n = if quick then 50_000 else 500_000 in
  let inst =
    let rng = Prng.create ~seed:52 in
    Rr_workload.Instance.generate_load ~rng
      ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
      ~load:0.9 ~machines:1 ~n ()
  in
  let jobs = Array.of_list (Rr_workload.Instance.jobs inst) in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  (* Same rationale as B5: quick mode halves the perf floors (CI smoke on
     shared runners, smaller n), agreement gates stay exact. *)
  let gate_scale = if quick then 0.5 else 1.0 in
  let point (spec, (policy : Rr_engine.Policy.t), full_gate, max_words) =
    let gate_eps = full_gate *. gate_scale in
    (* Agreement first, on a slice small enough to keep the flow compare
       cheap: live flows vs the closed engine's, per job id. *)
    let n_agree = Int.min n 20_000 in
    let agree_inst =
      Rr_workload.Instance.of_jobs
        (List.filteri (fun i _ -> i < n_agree)
           (List.map
              (fun (j : Rr_engine.Job.t) -> (j.arrival, j.size))
              (Rr_workload.Instance.jobs inst)))
    in
    let reference = Run.flows (Run.config ~cache:false ()) policy agree_inst in
    let live_flows = Array.make n_agree nan in
    let live =
      Rr_engine.Live.create ~sink:(fun ~id ~arrival:_ ~flow -> live_flows.(id) <- flow) spec
    in
    List.iter
      (fun (j : Rr_engine.Job.t) ->
        ignore (Rr_engine.Live.submit live ~arrival:j.arrival ~size:j.size);
        Rr_engine.Live.advance live j.arrival)
      (Rr_workload.Instance.jobs agree_inst);
    Rr_engine.Live.drain live;
    let max_rel = ref 0. in
    Array.iteri
      (fun i f -> max_rel := Float.max !max_rel (Float.abs (f -. reference.(i)) /. reference.(i)))
      live_flows;
    if !max_rel > diff_rtol then
      fail "B6: %s: max relative flow diff %.2e exceeds rtol %.0e"
        (Rr_engine.Live.spec_name spec) !max_rel diff_rtol;
    (* Throughput and allocation: the full incremental feed, timed end
       to end, its minor words counted as in B5 ([Gc.minor_words]
       includes the minor heap's current fill). *)
    Gc.compact ();
    let live = Rr_engine.Live.create spec in
    let words0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun (j : Rr_engine.Job.t) ->
        ignore (Rr_engine.Live.submit live ~arrival:j.arrival ~size:j.size);
        Rr_engine.Live.advance live j.arrival)
      jobs;
    Rr_engine.Live.drain live;
    let feed_s = Unix.gettimeofday () -. t0 in
    let words = (Gc.minor_words () -. words0) /. Float.of_int n in
    let events = (Rr_engine.Live.query live).Rr_engine.Live.events in
    let eps = Float.of_int events /. Float.max 1e-9 feed_s in
    if eps < gate_eps then
      fail "B6: %s: %.2e events/s below gate %.1e" (Rr_engine.Live.spec_name spec) eps gate_eps;
    if words > max_words then
      fail "B6: %s: incremental feed allocates %.1f words/job, above %.0f"
        (Rr_engine.Live.spec_name spec) words max_words;
    Printf.printf
      "B6: %-13s n=%d incremental feed: %d events in %6.3f s | %8.0f kevents/s (gate \
       >=%.0f k) | max rel diff %.2e | %5.1f words/job (gate <=%.0f)\n%!"
      (Rr_engine.Live.spec_name spec) n events feed_s (eps /. 1e3) (gate_eps /. 1e3) !max_rel
      words max_words;
    {
      l_spec = Rr_engine.Live.spec_name spec;
      l_events = events;
      l_feed_s = feed_s;
      l_events_per_s = eps;
      l_max_rel_diff = !max_rel;
      l_gate_eps = gate_eps;
      l_words_per_job = words;
      l_max_words = max_words;
    }
  in
  let points = List.map point b6_cases in
  { b6_n = n; b6_points = points; b6_failures = List.rev !failures }

let live_json_file = "BENCH_live.json"

let write_live_json (b6 : b6_report) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"bench_live/v2\",\n";
  add "  \"scale\": %S,\n" (if quick then "quick" else "full");
  add "  \"jobs\": %d, \"rtol\": %.0e,\n" b6.b6_n diff_rtol;
  add "  \"engines\": [\n";
  List.iteri
    (fun i p ->
      add
        "    {\"spec\": %S, \"events\": %d, \"feed_s\": %.6f, \"events_per_s\": %.1f, \
         \"max_rel_flow_diff\": %.3e, \"gate_min_events_per_s\": %.1f, \"gate_ok\": %b, \
         \"agree\": %b, \"words_per_job\": %.2f, \"gate_max_words_per_job\": %.0f, \
         \"words_ok\": %b}%s\n"
        p.l_spec p.l_events p.l_feed_s p.l_events_per_s p.l_max_rel_diff p.l_gate_eps
        (p.l_events_per_s >= p.l_gate_eps)
        (p.l_max_rel_diff <= diff_rtol)
        p.l_words_per_job p.l_max_words
        (p.l_words_per_job <= p.l_max_words)
        (if i = List.length b6.b6_points - 1 then "" else ","))
    b6.b6_points;
  add "  ],\n";
  add "  \"failures\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "%S") b6.b6_failures));
  add "  \"ok\": %b\n" (b6.b6_failures = []);
  add "}\n";
  let oc = open_out live_json_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "(wrote %s)\n%!" live_json_file

(* ------------------------------------------------------------------ *)
(* Machine-readable report                                             *)
(* ------------------------------------------------------------------ *)

let json_file = "BENCH_simcore.json"

(* b2 moved to its own report (BENCH_pool.json, bench_pool/v1) in v2. *)
let write_json b1 (b3 : b3_report) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"bench_simcore/v2\",\n";
  add "  \"scale\": %S,\n" (if quick then "quick" else "full");
  add "  \"b1\": [\n";
  List.iteri
    (fun i (name, ns) ->
      add "    {\"name\": %S, \"ns_per_run\": %s}%s\n" name
        (match ns with Some t -> Printf.sprintf "%.1f" t | None -> "null")
        (if i = List.length b1 - 1 then "" else ","))
    b1;
  add "  ],\n";
  add "  \"b3\": {\n";
  add
    "    \"simulate\": {\"name\": \"rr-simulate-n1000\", \"speed\": 1.0, \"general_ns\": \
     %.1f, \"equal_share_ns\": %.1f, \"speedup\": %.3f, \"max_rel_flow_diff\": %.3e, \
     \"rtol\": %.0e, \"agree\": %b},\n"
    b3.sim_general_ns b3.sim_fast_ns
    (b3.sim_general_ns /. Float.max 1. b3.sim_fast_ns)
    b3.sim_max_rel_diff b3.sim_rtol b3.sim_agree;
  add
    "    \"sweep\": {\"probes\": %d, \"cold_s\": %.6f, \"optimized_s\": %.6f, \"speedup\": \
     %.3f, \"cache_hits\": %d, \"cache_misses\": %d, \"cache_hit_rate\": %.4f, \
     \"same_crossover\": %b}\n"
    b3.sweep_probes b3.sweep_cold_s b3.sweep_opt_s
    (b3.sweep_cold_s /. Float.max 1e-9 b3.sweep_opt_s)
    b3.sweep_hits b3.sweep_misses
    (let total = b3.sweep_hits + b3.sweep_misses in
     if total = 0 then 0. else Float.of_int b3.sweep_hits /. Float.of_int total)
    b3.sweep_same_answer;
  add "  }\n";
  add "}\n";
  let oc = open_out json_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "(wrote %s)\n%!" json_file

(* ------------------------------------------------------------------ *)
(* B7: certified lower bound at scale (BENCH_bound.json)               *)
(* ------------------------------------------------------------------ *)

type b7_point = {
  bp_n : int;
  bp_seconds : float;
  bp_ratio : float;
  bp_lp_solved : bool;
  bp_lo : float;
  bp_hi : float;
  bp_delta : float;
  bp_solves : int;
}

type b7_report = {
  b7_dense_ns : float;
  b7_sparse_ns : float;
  b7_rel_diff : float;
  b7_speedup_vs_baseline : float;
  b7_warm_max_rel : float;
  b7_warm_cases : int;
  b7_cheap_ns : float;
  b7_points : b7_point list;
  b7_failures : string list;
}

(* lp-bound-n40 as B1 measured it before arc sparsification (seed-43
   instance, delta 0.5, dense network): frozen so the speedup gate keeps
   its meaning as both paths get faster. *)
let b7_baseline_ms = 45.6
let b7_speedup_floor = 25.
let b7_n40_rtol = 1e-6

(* Wall-clock ceiling for the n=2000 certified point (doubled under
   --quick for slow CI runners): about 3x the 1.0-1.5 s the job-by-job
   LP routing measures under --quick on a 2-vCPU box, so a return to the
   super-source routing (5.3-8.6 s there) fails. *)
let b7_curve_ceiling_s = 2.25
let b7_curve_tol = 0.1
let b7_warm_rtol = 1e-9

(* Random transportation network in the LP's shape — per-job arc costs
   non-decreasing in slot index — split into an initial slot range plus a
   widening tail, to differential-test solve -> add_edge -> resolve
   against a cold solve of the full network.  Monotone costs are the
   regime the warm path is specified for: a later slot is never cheaper,
   so the perturbation cannot create a negative residual cycle. *)
let b7_warm_case rng =
  let ns = 2 + Prng.int rng ~bound:4 in
  let nd = ns + 2 + Prng.int rng ~bound:6 in
  let split = nd - 1 - Prng.int rng ~bound:(nd / 2) in
  let supplies = Array.init ns (fun _ -> Prng.float_range rng ~lo:0.5 ~hi:5.) in
  let caps = Array.init nd (fun _ -> Prng.float_range rng ~lo:1. ~hi:4.) in
  let costs =
    Array.init ns (fun _ ->
        let c = ref 0. in
        Array.init nd (fun _ ->
            c := !c +. Prng.float_range rng ~lo:0. ~hi:3.;
            !c))
  in
  let build_net () = Rr_flow.Mcmf.create ~n_nodes:(ns + nd + 2) in
  let source = 0 and sink = ns + nd + 1 in
  let add_supplies net =
    Array.iteri
      (fun i s ->
        ignore (Rr_flow.Mcmf.add_edge net ~src:source ~dst:(1 + i) ~capacity:s ~cost:0.))
      supplies
  in
  let add_slots net lo hi =
    for j = lo to hi - 1 do
      ignore
        (Rr_flow.Mcmf.add_edge net ~src:(1 + ns + j) ~dst:sink ~capacity:caps.(j) ~cost:0.);
      for i = 0 to ns - 1 do
        ignore
          (Rr_flow.Mcmf.add_edge net ~src:(1 + i) ~dst:(1 + ns + j) ~capacity:10.
             ~cost:costs.(i).(j))
      done
    done
  in
  let cold = build_net () in
  add_supplies cold;
  add_slots cold 0 nd;
  let cold_out = Rr_flow.Mcmf.solve cold ~source ~sink in
  let warm = build_net () in
  add_supplies warm;
  add_slots warm 0 split;
  ignore (Rr_flow.Mcmf.solve warm ~source ~sink);
  add_slots warm split nd;
  let warm_out = Rr_flow.Mcmf.resolve warm ~source ~sink in
  let rel a b = Float.abs (a -. b) /. Float.max 1. (Float.abs b) in
  Float.max
    (rel warm_out.Rr_flow.Mcmf.flow cold_out.Rr_flow.Mcmf.flow)
    (rel warm_out.Rr_flow.Mcmf.cost cold_out.Rr_flow.Mcmf.cost)

let run_bound_bench pool =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let gate_scale = if quick then 0.5 else 1.0 in
  (* -- n40: sparse vs dense at the B1 operating point ---------------- *)
  let dense () =
    Rr_lp.Lp_bound.value ~windows:Rr_lp.Lp_bound.Dense ~k:2 ~machines:1 ~delta:0.5
      small_instance
  in
  let sparse () =
    Rr_lp.Lp_bound.value ~windows:Rr_lp.Lp_bound.Sparse ~k:2 ~machines:1 ~delta:0.5
      small_instance
  in
  let vd = dense () and vs = sparse () in
  let rel_diff = Float.abs (vs -. vd) /. Float.max 1e-12 (Float.abs vd) in
  if rel_diff > b7_n40_rtol then
    fail "lp-bound-n40 sparse value %.9g disagrees with dense %.9g (rel %.3e > %.0e)" vs vd
      rel_diff b7_n40_rtol;
  let reps = if quick then 10 else 30 in
  let dense_ns = time_per_run reps (fun () -> ignore (dense ())) in
  let sparse_ns = time_per_run reps (fun () -> ignore (sparse ())) in
  let speedup = b7_baseline_ms *. 1e6 /. Float.max 1. sparse_ns in
  let floor = b7_speedup_floor *. gate_scale in
  if speedup < floor then
    fail "lp-bound-n40 speedup %.1fx vs frozen %.1f ms baseline is below the %.1fx floor"
      speedup b7_baseline_ms floor;
  (* -- warm resolve vs cold solve differential ----------------------- *)
  let warm_rng = Prng.create ~seed:77 in
  let warm_cases = if quick then 20 else 60 in
  let warm_max_rel = ref 0. in
  for _ = 1 to warm_cases do
    warm_max_rel := Float.max !warm_max_rel (b7_warm_case warm_rng)
  done;
  if !warm_max_rel > b7_warm_rtol then
    fail "warm resolve diverges from cold solve: max rel diff %.3e > %.0e" !warm_max_rel
      b7_warm_rtol;
  (* -- certified ratio curve ----------------------------------------- *)
  let curve_ns = if quick then [ 500; 2000 ] else [ 200; 500; 1000; 2000 ] in
  let curve_inst n =
    let rng = Prng.create ~seed:(40 + n) in
    Rr_workload.Instance.generate_load ~rng
      ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
      ~load:0.9 ~machines:1 ~n ()
  in
  let cfg = Run.config () in
  let points =
    List.map
      (fun n ->
        let inst = curve_inst n in
        let t0 = Unix.gettimeofday () in
        let c =
          Ratio.vs_certified ~pool ~tol:b7_curve_tol cfg Rr_policies.Round_robin.policy inst
        in
        let seconds = Unix.gettimeofday () -. t0 in
        let lo, hi, delta, solves =
          match c.Ratio.interval with
          | Some itv ->
              Rr_lp.Lp_bound.(itv.lo, itv.hi, itv.delta, itv.solves)
          | None -> (0., 0., 0., 0)
        in
        {
          bp_n = n;
          bp_seconds = seconds;
          bp_ratio = c.Ratio.ratio;
          bp_lp_solved = c.Ratio.lp_solved;
          bp_lo = lo;
          bp_hi = hi;
          bp_delta = delta;
          bp_solves = solves;
        })
      curve_ns
  in
  let ceiling = b7_curve_ceiling_s /. gate_scale in
  List.iter
    (fun p ->
      if p.bp_n >= 2000 && p.bp_seconds > ceiling then
        fail "certified ratio point at n=%d took %.1f s (> %.1f s ceiling)" p.bp_n
          p.bp_seconds ceiling;
      if p.bp_lp_solved && p.bp_lo > p.bp_hi *. (1. +. 1e-9) then
        fail "certified interval inverted at n=%d: lo %.6g > hi %.6g" p.bp_n p.bp_lo p.bp_hi)
    points;
  (* -- cheap filter cost (context for the curve) --------------------- *)
  let big = curve_inst 2000 in
  let cheap_ns =
    time_per_run reps (fun () ->
        ignore (Rr_lp.Lp_bound.cheap_lower_bound ~k:2 ~machines:1 big))
  in
  let table =
    Table.create ~title:"B7: certified lower bound at scale"
      ~columns:[ "measure"; "value" ]
  in
  Table.add_row table
    [ "lp-bound-n40 sparse"; Printf.sprintf "%.3f ms (dense %.3f ms)" (sparse_ns /. 1e6)
        (dense_ns /. 1e6) ];
  Table.add_row table
    [ "speedup vs 45.6 ms baseline"; Printf.sprintf "%.1fx (floor %.1fx)" speedup floor ];
  Table.add_row table
    [ "warm vs cold max rel diff"; Printf.sprintf "%.2e (%d cases)" !warm_max_rel warm_cases ];
  Table.add_row table
    [ "cheap filter n=2000"; Printf.sprintf "%.3f ms" (cheap_ns /. 1e6) ];
  List.iter
    (fun p ->
      Table.add_row table
        [ Printf.sprintf "certified ratio n=%d" p.bp_n;
          Printf.sprintf "%.3f in %.1f s [%.6g, %.6g] delta %.4g (%d solves)%s" p.bp_ratio
            p.bp_seconds p.bp_lo p.bp_hi p.bp_delta p.bp_solves
            (if p.bp_lp_solved then "" else " (cheap filter only)") ])
    points;
  Table.print table;
  {
    b7_dense_ns = dense_ns;
    b7_sparse_ns = sparse_ns;
    b7_rel_diff = rel_diff;
    b7_speedup_vs_baseline = speedup;
    b7_warm_max_rel = !warm_max_rel;
    b7_warm_cases = warm_cases;
    b7_cheap_ns = cheap_ns;
    b7_points = points;
    b7_failures = List.rev !failures;
  }

let bound_json_file = "BENCH_bound.json"

let write_bound_json (b7 : b7_report) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"bench_bound/v1\",\n";
  add "  \"scale\": %S,\n" (if quick then "quick" else "full");
  add
    "  \"n40\": {\"dense_ns\": %.1f, \"sparse_ns\": %.1f, \"rel_diff\": %.3e, \"rtol\": \
     %.0e, \"baseline_ms\": %.1f, \"speedup_vs_baseline\": %.2f, \"floor\": %.1f},\n"
    b7.b7_dense_ns b7.b7_sparse_ns b7.b7_rel_diff b7_n40_rtol b7_baseline_ms
    b7.b7_speedup_vs_baseline
    (b7_speedup_floor *. if quick then 0.5 else 1.0);
  add "  \"warm\": {\"max_rel_diff\": %.3e, \"rtol\": %.0e, \"cases\": %d},\n"
    b7.b7_warm_max_rel b7_warm_rtol b7.b7_warm_cases;
  add "  \"cheap\": {\"n\": 2000, \"ns_per_run\": %.1f},\n" b7.b7_cheap_ns;
  add "  \"curve\": {\"tol\": %.3g, \"ceiling_s\": %.1f, \"points\": [\n" b7_curve_tol
    (b7_curve_ceiling_s /. if quick then 0.5 else 1.0);
  List.iteri
    (fun i p ->
      add
        "    {\"n\": %d, \"seconds\": %.3f, \"ratio\": %.6f, \"lp_solved\": %b, \"lo\": \
         %.6f, \"hi\": %.6f, \"delta\": %.6f, \"solves\": %d}%s\n"
        p.bp_n p.bp_seconds p.bp_ratio p.bp_lp_solved p.bp_lo p.bp_hi p.bp_delta p.bp_solves
        (if i = List.length b7.b7_points - 1 then "" else ","))
    b7.b7_points;
  add "  ]},\n";
  add "  \"failures\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "%S") b7.b7_failures));
  add "  \"ok\": %b\n" (b7.b7_failures = []);
  add "}\n";
  let oc = open_out bound_json_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "(wrote %s)\n%!" bound_json_file

(* ------------------------------------------------------------------ *)
(* B8: wire-speed serving (BENCH_serve.json)                           *)
(* ------------------------------------------------------------------ *)

type b8_point = {
  s_proto : string;
  s_clients : int;
  s_batch : int;
  s_jobs : int;
  s_ops : int;
  s_wall_s : float;
  s_events_per_s : float;
  s_lat_p50_us : float;
  s_lat_p90_us : float;
  s_lat_p99_us : float;
  s_gate_eps : float option;
}

(* A feeder's per-frame round trip with [i_idle] greeted idle connections
   on the daemon against the same feed with none. *)
type b8_idle = {
  i_idle : int;
  i_frames : int;
  i_rtt_p50_us_none : float;
  i_rtt_p50_us_idle : float;
  i_ratio : float;
  i_gate : float;
}

type b8_report = {
  b8_points : b8_point list;
  b8_idle : b8_idle;
  b8_speedup : float;
  b8_speedup_gate : float;
  b8_stats_max_rel : float;
  b8_stats_identical : bool;
  b8_failures : string list;
}

(* Acceptance bars of the serving work: the binary framed path must
   sustain half a million wire events per second end to end (client,
   socket, server loop, engine) and beat the text line protocol — one
   syscall round trip per event — by an order of magnitude.  Quick mode
   halves both floors like B5/B6 (shared CI runners, smaller n); the
   agreement gate stays exact. *)
let b8_binary_floor = 500e3
let b8_speedup_floor = 10.
let b8_batch = 512
let b8_seed = 29

(* Max relative difference across the 15 STATS fields; int fields must
   match exactly (counted as an infinite difference when they do not). *)
let b8_stats_rel (a : Rr_engine.Live.stats) (b : Rr_engine.Live.stats) =
  let rel x y =
    if x = y then 0. else Float.abs (x -. y) /. Float.max 1e-12 (Float.max (Float.abs x) (Float.abs y))
  in
  let ints =
    [
      (a.submitted, b.submitted);
      (a.completed, b.completed);
      (a.alive, b.alive);
      (a.pending, b.pending);
      (a.events, b.events);
      (a.max_alive, b.max_alive);
    ]
  in
  let floats =
    [
      (a.now, b.now);
      (a.makespan, b.makespan);
      (a.mean_flow, b.mean_flow);
      (a.max_flow, b.max_flow);
      (a.power_sum, b.power_sum);
      (a.norm, b.norm);
      (a.p50, b.p50);
      (a.p90, b.p90);
      (a.p99, b.p99);
    ]
  in
  if List.exists (fun (x, y) -> x <> y) ints then infinity
  else List.fold_left (fun acc (x, y) -> Float.max acc (rel x y)) 0. floats

(* In-process replay of exactly the feed the binary loadgen sends: same
   stream, same batch boundaries, advance to each batch's last arrival,
   drain.  The socket-fed engine must land on the same stats bit for
   bit. *)
let b8_inprocess_replay ~n =
  let stream =
    Rr_workload.Instance.Stream.generate_load ~seed:b8_seed
      ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
      ~load:0.9 ~machines:1 ~n ()
  in
  let next = Rr_workload.Instance.Stream.start stream in
  let live = Rr_engine.Live.create (Rr_engine.Live.Classified Rr_engine.Policy_class.Equal_share) in
  let arrivals = Array.make b8_batch 0. and sizes = Array.make b8_batch 0. in
  let rec fill i =
    if i >= b8_batch then i
    else
      match next () with
      | None -> i
      | Some (j : Rr_engine.Job.t) ->
          arrivals.(i) <- j.arrival;
          sizes.(i) <- j.size;
          fill (i + 1)
  in
  let continue = ref true in
  while !continue do
    let len = fill 0 in
    if len = 0 then continue := false
    else begin
      ignore (Rr_engine.Live.submit_batch live ~arrivals ~sizes ~len () : int);
      Rr_engine.Live.advance live arrivals.(len - 1)
    end
  done;
  Rr_engine.Live.drain live;
  Rr_engine.Live.query live

let b8_serve_point ~proto ~clients ~n ~gate_eps =
  let path = Printf.sprintf "/tmp/rr-bench-serve-%d-%s.sock" (Unix.getpid ())
      (match proto with `Binary -> "bin" | `Text -> "text")
  in
  let engine =
    ref (Rr_engine.Live.create (Rr_engine.Live.Classified Rr_engine.Policy_class.Equal_share))
  in
  let server_proto =
    match proto with `Binary -> Rr_serve.Server.Binary | `Text -> Rr_serve.Server.Text
  in
  let d =
    Domain.spawn (fun () -> Rr_serve.Server.run ~proto:server_proto ~engine ~path ())
  in
  let report =
    Fun.protect
      ~finally:(fun () -> Domain.join d)
      (fun () ->
        try
          Rr_serve.Loadgen.run ~path ~proto ~clients ~batch:b8_batch ~seed:b8_seed
            ~shutdown:true ~n ()
        with e ->
          (* Best-effort server stop, so the join in the finally above
             cannot hang on a server that never got its shutdown. *)
          (match proto with
          | `Binary -> (
              try Rr_serve.Client.shutdown (Rr_serve.Client.connect ~retries:5 path)
              with _ -> ())
          | `Text -> (
              try
                let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                Unix.connect fd (Unix.ADDR_UNIX path);
                let oc = Unix.out_channel_of_descr fd in
                output_string oc "QUIT\n";
                flush oc;
                Unix.close fd
              with _ -> ()));
          raise e)
  in
  let point =
    {
      s_proto = report.Rr_serve.Loadgen.proto;
      s_clients = report.clients;
      s_batch = report.batch;
      s_jobs = report.jobs;
      s_ops = report.ops;
      s_wall_s = report.wall_s;
      s_events_per_s = report.events_per_s;
      s_lat_p50_us = report.lat_p50_us;
      s_lat_p90_us = report.lat_p90_us;
      s_lat_p99_us = report.lat_p99_us;
      s_gate_eps = gate_eps;
    }
  in
  (point, report.final_stats)

(* Idle connections must not tax the busy one: a loop that rebuilds and
   scans its whole descriptor set on every wake-up pays for each idle
   connection on every frame (~3x at 200 under the old select loop).
   The feed is wire-open's: BATCH(16) and ADVANCE frames in turn, one
   round trip each, the first tenth a warm-up. *)
let b8_idle_connections = 200
let b8_idle_gate = 1.5
let b8_idle_batch = 16

let b8_idle_rtt_p50_us ~idle ~frames =
  let path = Printf.sprintf "/tmp/rr-bench-serve-%d-idle%d.sock" (Unix.getpid ()) idle in
  let engine =
    ref (Rr_engine.Live.create (Rr_engine.Live.Classified Rr_engine.Policy_class.Equal_share))
  in
  let config = { Rr_serve.Server.default_config with max_clients = idle + 2 } in
  let d =
    Domain.spawn (fun () ->
        Rr_serve.Server.run ~config ~proto:Rr_serve.Server.Binary ~engine ~path ())
  in
  Fun.protect
    ~finally:(fun () ->
      (try Rr_serve.Client.shutdown (Rr_serve.Client.connect ~retries:5 path) with _ -> ());
      Domain.join d)
    (fun () ->
      let feeder = Rr_serve.Client.connect path in
      let idlers = Array.init idle (fun _ -> Rr_serve.Client.connect path) in
      let stream =
        Rr_workload.Instance.Stream.generate_load ~seed:b8_seed
          ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
          ~load:0.9 ~machines:1 ~n:(b8_idle_batch * ((frames / 2) + 1)) ()
      in
      let next = Rr_workload.Instance.Stream.start stream in
      let arrivals = Array.make b8_idle_batch 0. and sizes = Array.make b8_idle_batch 0. in
      let warmup = frames / 10 in
      let rtts = Array.make (frames - warmup) 0. in
      for f = 0 to frames - 1 do
        let t0 = Unix.gettimeofday () in
        if f land 1 = 0 then begin
          for i = 0 to b8_idle_batch - 1 do
            match next () with
            | Some (j : Rr_engine.Job.t) ->
                arrivals.(i) <- j.arrival;
                sizes.(i) <- j.size
            | None -> failwith "B8 idle feed ended early"
          done;
          ignore (Rr_serve.Client.submit_batch feeder ~arrivals ~sizes () : int)
        end
        else ignore (Rr_serve.Client.advance feeder arrivals.(b8_idle_batch - 1) : float * int * int);
        let dt = Unix.gettimeofday () -. t0 in
        if f >= warmup then rtts.(f - warmup) <- dt *. 1e6
      done;
      Array.iter Rr_serve.Client.bye idlers;
      Rr_serve.Client.shutdown feeder;
      Array.sort Float.compare rtts;
      rtts.(Array.length rtts / 2))

let run_idle_point () =
  let frames = if quick then 20_000 else 60_000 in
  let none = b8_idle_rtt_p50_us ~idle:0 ~frames in
  let busy = b8_idle_rtt_p50_us ~idle:b8_idle_connections ~frames in
  {
    i_idle = b8_idle_connections;
    i_frames = frames;
    i_rtt_p50_us_none = none;
    i_rtt_p50_us_idle = busy;
    i_ratio = busy /. Float.max 1e-9 none;
    i_gate = b8_idle_gate;
  }

let run_serve_bench () =
  Gc.compact ();
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let gate_scale = if quick then 0.5 else 1.0 in
  let n_binary = if quick then 100_000 else 400_000 in
  let n_text = if quick then 4_000 else 20_000 in
  let binary_gate = b8_binary_floor *. gate_scale in
  let speedup_gate = b8_speedup_floor *. gate_scale in
  (* Binary point: one feeder shipping BATCH frames plus one concurrent
     STATS observer, so the measured rate includes real multiplexing. *)
  let binary, wire_stats =
    b8_serve_point ~proto:`Binary ~clients:2 ~n:n_binary ~gate_eps:(Some binary_gate)
  in
  if binary.s_events_per_s < binary_gate then
    fail "B8: binary %.0f events/s below gate %.0f" binary.s_events_per_s binary_gate;
  (* Socket-fed vs in-process: replay the identical feed locally and
     compare all 15 STATS fields. *)
  let local_stats = b8_inprocess_replay ~n:n_binary in
  let stats_max_rel = b8_stats_rel wire_stats local_stats in
  if stats_max_rel > diff_rtol then
    fail "B8: socket-fed stats diverge from in-process replay: %.2e > %.0e" stats_max_rel
      diff_rtol;
  (* Text point: same server loop, one SUBMIT line per job — the
     contrast that justifies the framed protocol. *)
  let text, _ = b8_serve_point ~proto:`Text ~clients:1 ~n:n_text ~gate_eps:None in
  let speedup = binary.s_events_per_s /. Float.max 1e-9 text.s_events_per_s in
  if speedup < speedup_gate then
    fail "B8: binary only %.1fx over text, below gate %.1fx" speedup speedup_gate;
  Printf.printf
    "B8: binary  n=%d clients=%d batch=%d: %8.0f kevents/s (gate >=%.0f k) | p50 %.0f us \
     p99 %.0f us\n%!"
    binary.s_jobs binary.s_clients binary.s_batch
    (binary.s_events_per_s /. 1e3)
    (binary_gate /. 1e3) binary.s_lat_p50_us binary.s_lat_p99_us;
  Printf.printf
    "B8: text    n=%d clients=%d: %8.0f kevents/s | binary/text %.1fx (gate >=%.1fx) | \
     stats max rel %.2e\n%!"
    text.s_jobs text.s_clients
    (text.s_events_per_s /. 1e3)
    speedup speedup_gate stats_max_rel;
  let idle = run_idle_point () in
  if idle.i_ratio > idle.i_gate then
    fail "B8: %d idle connections raise the feeder's round trip %.2fx, above gate %.1fx"
      idle.i_idle idle.i_ratio idle.i_gate;
  Printf.printf
    "B8: idle    %d connections: feeder rtt p50 %.1f us vs %.1f us with none = %.2fx (gate \
     <=%.1fx)\n%!"
    idle.i_idle idle.i_rtt_p50_us_idle idle.i_rtt_p50_us_none idle.i_ratio idle.i_gate;
  {
    b8_points = [ binary; text ];
    b8_idle = idle;
    b8_speedup = speedup;
    b8_speedup_gate = speedup_gate;
    b8_stats_max_rel = stats_max_rel;
    b8_stats_identical = stats_max_rel = 0.;
    b8_failures = List.rev !failures;
  }

let serve_json_file = "BENCH_serve.json"

let write_serve_json (b8 : b8_report) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n";
  add "  \"schema\": \"bench_serve/v2\",\n";
  add "  \"scale\": %S,\n" (if quick then "quick" else "full");
  add "  \"points\": [\n";
  List.iteri
    (fun i p ->
      add
        "    {\"proto\": %S, \"clients\": %d, \"batch\": %d, \"jobs\": %d, \"ops\": %d, \
         \"wall_s\": %.6f, \"events_per_s\": %.1f, \"lat_p50_us\": %.2f, \"lat_p90_us\": \
         %.2f, \"lat_p99_us\": %.2f, \"gate_min_events_per_s\": %s, \"gate_ok\": %b}%s\n"
        p.s_proto p.s_clients p.s_batch p.s_jobs p.s_ops p.s_wall_s p.s_events_per_s
        p.s_lat_p50_us p.s_lat_p90_us p.s_lat_p99_us
        (match p.s_gate_eps with Some g -> Printf.sprintf "%.1f" g | None -> "null")
        (match p.s_gate_eps with Some g -> p.s_events_per_s >= g | None -> true)
        (if i = List.length b8.b8_points - 1 then "" else ","))
    b8.b8_points;
  add "  ],\n";
  add "  \"binary_over_text\": %.2f, \"gate_min_speedup\": %.1f,\n" b8.b8_speedup
    b8.b8_speedup_gate;
  add "  \"stats_max_rel_diff\": %.3e, \"stats_rtol\": %.0e, \"stats_bit_identical\": %b,\n"
    b8.b8_stats_max_rel diff_rtol b8.b8_stats_identical;
  let i = b8.b8_idle in
  add
    "  \"idle\": {\"idle_connections\": %d, \"frames\": %d, \"rtt_p50_us_none\": %.2f, \
     \"rtt_p50_us_idle\": %.2f, \"ratio\": %.3f, \"gate_max_ratio\": %.1f, \"gate_ok\": %b},\n"
    i.i_idle i.i_frames i.i_rtt_p50_us_none i.i_rtt_p50_us_idle i.i_ratio i.i_gate
    (i.i_ratio <= i.i_gate);
  add "  \"failures\": [%s],\n"
    (String.concat ", " (List.map (Printf.sprintf "%S") b8.b8_failures));
  add "  \"ok\": %b\n" (b8.b8_failures = []);
  add "}\n";
  let oc = open_out serve_json_file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "(wrote %s)\n%!" serve_json_file

let () =
  (* B5 carries the strictest perf gates (engine speedup floors), so it
     runs first, on a pristine heap — after the bechamel suites the major
     heap is large enough to distort its per-run timings. *)
  let b5 = run_fastpath_bench () in
  let b6 = run_live_bench () in
  let b2 = run_pool_bench () in
  let b1 =
    Pool.with_pool ~domains (fun pool ->
        run_experiments pool;
        run_microbench ())
  in
  let b3 = run_simcore_bench () in
  let b4 = run_stream_bench () in
  let b7 = Pool.with_pool ~domains run_bound_bench in
  let b8 = run_serve_bench () in
  write_json b1 b3;
  write_pool_json b2;
  write_stream_json b4;
  write_fastpaths_json b5;
  write_live_json b6;
  write_bound_json b7;
  write_serve_json b8;
  if not (b3.sim_agree && b3.sweep_same_answer) then begin
    prerr_endline
      "B3 FAILED: the equal-share engine disagrees with the general engine; see \
       BENCH_simcore.json";
    exit 1
  end;
  if b2.b2_failures <> [] then begin
    List.iter (fun m -> prerr_endline ("B2 FAILED: " ^ m)) b2.b2_failures;
    prerr_endline "B2 FAILED: pool gate; see BENCH_pool.json";
    exit 1
  end;
  if b4.b4_failures <> [] then begin
    List.iter (fun m -> prerr_endline ("B4 FAILED: " ^ m)) b4.b4_failures;
    prerr_endline "B4 FAILED: streaming pipeline gate; see BENCH_stream.json";
    exit 1
  end;
  if b5.b5_failures <> [] then begin
    List.iter (fun m -> prerr_endline ("B5 FAILED: " ^ m)) b5.b5_failures;
    prerr_endline "B5 FAILED: fast-path engine gate; see BENCH_fastpaths.json";
    exit 1
  end;
  if b6.b6_failures <> [] then begin
    List.iter (fun m -> prerr_endline ("B6 FAILED: " ^ m)) b6.b6_failures;
    prerr_endline "B6 FAILED: live engine gate; see BENCH_live.json";
    exit 1
  end;
  if b7.b7_failures <> [] then begin
    List.iter (fun m -> prerr_endline ("B7 FAILED: " ^ m)) b7.b7_failures;
    prerr_endline "B7 FAILED: certified bound gate; see BENCH_bound.json";
    exit 1
  end;
  if b8.b8_failures <> [] then begin
    List.iter (fun m -> prerr_endline ("B8 FAILED: " ^ m)) b8.b8_failures;
    prerr_endline "B8 FAILED: serving gate; see BENCH_serve.json";
    exit 1
  end
