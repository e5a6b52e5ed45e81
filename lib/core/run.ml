type engine = [ `Auto | `General | `Closed | `Live ]

type config = {
  machines : int;
  speed : float;
  k : int;
  record_trace : bool;
  engine : engine;
  cache : bool;
}

let default =
  { machines = 1; speed = 1.; k = 2; record_trace = false; engine = `Auto; cache = true }

let config ?(machines = default.machines) ?(speed = default.speed) ?(k = default.k)
    ?(record_trace = default.record_trace) ?(engine = default.engine)
    ?(cache = default.cache) () =
  { machines; speed; k; record_trace; engine; cache }

let engine_of_string s =
  match String.lowercase_ascii s with
  | "auto" -> Some `Auto
  | "general" -> Some `General
  | "closed" -> Some `Closed
  | "live" -> Some `Live
  | _ -> None

let engine_to_string = function
  | `Auto -> "auto"
  | `General -> "general"
  | `Closed -> "closed"
  | `Live -> "live"

let engine_strings = [ "auto"; "general"; "closed"; "live" ]

type selection =
  | General
  | Closed of Rr_engine.Policy_class.t
  | Live of Rr_engine.Policy_class.t

let unsupported engine (policy : Rr_engine.Policy.t) =
  invalid_arg
    (Printf.sprintf "Run: policy %s has no %s engine (pick `Auto or `General)" policy.name
       engine)

(* A class kernel applies exactly when the policy declares a class: the
   descriptor ([Policy.t.klass]) asserts that [allocate] is extensionally
   the class's reference behaviour, and the engine layer dispatches on
   the descriptor alone.  An undeclared policy — even one structurally
   identical to a classified one — stays on the general loop by design:
   the declaration is the contract the differential suite pins, not a
   structural guess. *)
let selection_for cfg (policy : Rr_engine.Policy.t) =
  match (cfg.engine, policy.klass) with
  | `General, _ | `Auto, None -> General
  | (`Auto | `Closed), Some klass -> Closed klass
  | `Live, Some klass -> Live klass
  | ((`Closed | `Live) as e), None -> unsupported (engine_to_string e) policy

let engine_name cfg policy =
  match selection_for cfg policy with
  | General -> "general"
  | Closed klass -> Rr_engine.Policy_class.engine_name klass
  | Live klass -> "live-" ^ Rr_engine.Policy_class.engine_name klass

(* The engine's default livelock guard, shared with the closed engines. *)
let default_max_events = 10_000_000

let live_create cfg ?(max_events = default_max_events) klass =
  Rr_engine.Live.create ~machines:cfg.machines ~speed:cfg.speed ~k:cfg.k ~max_events
    (Rr_engine.Live.Classified klass)

(* Submit a materialized instance's jobs upfront (they arrive in release
   order with dense ids, so the live engine re-derives the same ids),
   then drain.  The event sequence is identical to the closed engine's. *)
let live_run_instance cfg klass ~sink jobs =
  let live = live_create cfg klass in
  Rr_engine.Live.set_sink live sink;
  List.iter
    (fun (j : Rr_engine.Job.t) ->
      ignore (Rr_engine.Live.submit live ~arrival:j.arrival ~size:j.size : int))
    jobs;
  Rr_engine.Live.drain live;
  Rr_engine.Live.query live

(* Streaming feed: submit one job, advance to its arrival, repeat — the
   pending queue never holds more than one job, so live memory stays
   O(alive) exactly like the closed streaming engines. *)
let live_run_stream cfg klass ~max_events ~sink pull =
  let live = live_create cfg ~max_events klass in
  Rr_engine.Live.set_sink live sink;
  let rec feed () =
    match pull () with
    | None -> ()
    | Some (j : Rr_engine.Job.t) ->
        ignore (Rr_engine.Live.submit live ~arrival:j.arrival ~size:j.size : int);
        Rr_engine.Live.advance live j.arrival;
        feed ()
  in
  feed ();
  Rr_engine.Live.drain live;
  Rr_engine.Live.query live

let no_sink : Rr_engine.Simulator.sink = fun ~id:_ ~arrival:_ ~flow:_ -> ()

let simulate cfg policy inst =
  let jobs = Rr_workload.Instance.jobs inst in
  let record_trace = cfg.record_trace and speed = cfg.speed and machines = cfg.machines in
  match selection_for cfg policy with
  | Closed klass -> Rr_engine.Simulator.run_class ~record_trace ~speed ~machines klass jobs
  | General -> Rr_engine.Simulator.run ~record_trace ~speed ~machines ~policy jobs
  | Live klass ->
      (* The live engine reports (arrival, flow) pairs; rebuild the
         result's completion array from them.  [record_trace] is ignored
         (the incremental core keeps no segment trace). *)
      let n = List.length jobs in
      let jobs_arr =
        match jobs with
        | [] -> [||]
        | j0 :: _ ->
            let a = Array.make n j0 in
            List.iter (fun (j : Rr_engine.Job.t) -> a.(j.id) <- j) jobs;
            a
      in
      let completions = Array.make n Float.nan in
      let sink ~id ~arrival ~flow = completions.(id) <- arrival +. flow in
      let q = live_run_instance cfg klass ~sink jobs in
      {
        Rr_engine.Simulator.jobs = jobs_arr;
        completions;
        trace = [];
        machines;
        speed;
        events = q.Rr_engine.Live.events;
      }

(* The engine's default 10M-event livelock guard would trip on perfectly
   healthy multi-million-job streams (>= 2 events per job); the stream
   knows its size, so scale the budget with it instead of uncapping. *)
let stream_max_events stream =
  Int.max default_max_events (64 * Rr_workload.Instance.Stream.n stream)

let simulate_stream cfg policy stream ~sink =
  let max_events = stream_max_events stream in
  let speed = cfg.speed and machines = cfg.machines in
  (* The closed driver reads the stream through the unboxed raw cursor,
     so admitting a job builds no [Job.t] (bench B4 gates the equal-share
     kernel at ~0 words/job, B5 the others); only the general loop, whose
     policy views hold whole jobs, and the live engine pull boxed jobs. *)
  let module S = Rr_workload.Instance.Stream in
  match selection_for cfg policy with
  | Closed klass ->
      Rr_engine.Simulator.run_class_stream ~speed ~max_events ~machines ~sink klass
        (S.start_raw stream)
  | General ->
      Rr_engine.Simulator.run_stream ~speed ~max_events ~machines ~policy ~sink (S.start stream)
  | Live klass ->
      let q = live_run_stream cfg klass ~max_events ~sink (S.start stream) in
      {
        Rr_engine.Simulator.n = q.Rr_engine.Live.completed;
        events = q.Rr_engine.Live.events;
        machines;
        speed;
        makespan = q.Rr_engine.Live.makespan;
        max_alive = q.Rr_engine.Live.max_alive;
      }

type result = {
  policy_name : string;
  instance_label : string;
  n : int;
  norm : float;
  power_sum : float;
  mean_flow : float;
  max_flow : float;
  events : int;
}

let key cfg (policy : Rr_engine.Policy.t) ~streamed ~digest =
  Cache.key ~policy:policy.name ~machines:cfg.machines ~speed:cfg.speed ~k:cfg.k
    ~engine:(engine_name cfg policy) ~streamed ~digest

let result_of_entry (policy : Rr_engine.Policy.t) ~instance_label (e : Cache.entry) =
  {
    policy_name = policy.name;
    instance_label;
    n = e.Cache.n;
    norm = e.Cache.norm;
    power_sum = e.Cache.power_sum;
    mean_flow = e.Cache.mean_flow;
    max_flow = e.Cache.max_flow;
    events = e.Cache.events;
  }

let measure cfg (policy : Rr_engine.Policy.t) inst =
  let compute_live klass =
    (* The live engine accumulates the same Kahan/Welford/max folds as it
       completes jobs, so its query already IS the measurement — no
       completion array to sweep.  Sums run in completion order rather
       than id order, the same ~1e-9 relative difference the streamed
       path exhibits (the distinct [engine] cache string keeps the
       entries from aliasing). *)
    let q = live_run_instance cfg klass ~sink:no_sink (Rr_workload.Instance.jobs inst) in
    {
      Cache.n = q.Rr_engine.Live.completed;
      norm = q.Rr_engine.Live.norm;
      power_sum = q.Rr_engine.Live.power_sum;
      mean_flow = q.Rr_engine.Live.mean_flow;
      max_flow = q.Rr_engine.Live.max_flow;
      events = q.Rr_engine.Live.events;
    }
  in
  let compute () =
    match selection_for cfg policy with
    | Live klass -> compute_live klass
    | _ ->
    (* The measurement never needs the trace; forcing it off keeps cached
       and uncached runs of the same config identical in cost and lets a
       record_trace config share cache entries with a plain one. *)
    let res = simulate { cfg with record_trace = false } policy inst in
    let jobs = res.Rr_engine.Simulator.jobs in
    let completions = res.Rr_engine.Simulator.completions in
    let n = Array.length completions in
    (* One fused sweep instead of four over a materialized flow array
       (lk, power_sum, Welford, linf).  Each flow is the exact value
       [Simulator.flows] would have produced, each accumulator's
       per-element update is exactly the one its Sink performs, and the
       accumulators are independent — so every field is bit-identical to
       the separate passes; the Lk norm itself is power_sum ** (1/k),
       exactly as Sink.lk derives it. *)
    let ps_acc = Rr_util.Kahan.create () in
    let w = Rr_util.Welford.create () in
    let mx = ref Float.neg_infinity in
    for i = 0 to n - 1 do
      let f = completions.(i) -. jobs.(i).Rr_engine.Job.arrival in
      if f < 0. then invalid_arg "Sink.power_sum: negative flow time";
      Rr_util.Kahan.add ps_acc (Rr_util.Floatx.powi f cfg.k);
      Rr_util.Welford.add w f;
      if f > !mx then mx := f
    done;
    let ps = Rr_util.Kahan.total ps_acc in
    {
      Cache.n;
      norm = (if n = 0 then 0. else ps ** (1. /. Float.of_int cfg.k));
      power_sum = ps;
      mean_flow = (if n = 0 then 0. else Rr_util.Welford.mean w);
      max_flow = (if n = 0 then 0. else !mx);
      events = res.Rr_engine.Simulator.events;
    }
  in
  let entry =
    if cfg.cache then
      Cache.find_or_compute
        (key cfg policy ~streamed:false ~digest:(Rr_workload.Instance.digest inst))
        compute
    else compute ()
  in
  result_of_entry policy ~instance_label:(inst : Rr_workload.Instance.t).label entry

let measure_stream cfg (policy : Rr_engine.Policy.t) stream =
  let compute () =
    (* One pass: each completion goes into the incremental folds and is
       discarded — nothing per-job survives the run.  The closed driver
       folds straight out of its kernel's completion log, with no sink
       call and no boxed float per job; the general loop and the live
       feed push into the same folds through a sink. *)
    let folds = Rr_engine.Simulator.folds ~k:cfg.k in
    let summary =
      match selection_for cfg policy with
      | Closed klass ->
          Rr_engine.Simulator.run_class_fold ~speed:cfg.speed
            ~max_events:(stream_max_events stream) ~machines:cfg.machines folds klass
            (Rr_workload.Instance.Stream.start_raw stream)
      | General | Live _ ->
          simulate_stream { cfg with record_trace = false } policy stream
            ~sink:(Rr_engine.Simulator.fold_sink folds)
    in
    let wv = folds.Rr_engine.Simulator.moments in
    let power_sum = Rr_util.Kahan.total folds.Rr_engine.Simulator.power_sum in
    let n = summary.Rr_engine.Simulator.n in
    {
      Cache.n;
      norm = (if n = 0 then 0. else power_sum ** (1. /. Float.of_int cfg.k));
      power_sum;
      mean_flow = Rr_util.Welford.mean wv;
      max_flow = (if n = 0 then 0. else Rr_util.Welford.max wv);
      events = summary.Rr_engine.Simulator.events;
    }
  in
  let entry =
    if cfg.cache then
      Cache.find_or_compute
        (key cfg policy ~streamed:true ~digest:(Rr_workload.Instance.Stream.digest stream))
        compute
    else compute ()
  in
  result_of_entry policy
    ~instance_label:(Rr_workload.Instance.Stream.label stream)
    entry

(* Uncached by design: the cache stores O(1) aggregates, never flow
   vectors, so asking for the vector always re-simulates. *)
let flows cfg policy inst =
  Rr_engine.Simulator.flows (simulate { cfg with record_trace = false } policy inst)

let norm cfg policy inst = (measure cfg policy inst).norm
let power_sum cfg policy inst = (measure cfg policy inst).power_sum

(* Order-of-magnitude per-task cost model for `Auto chunking, in
   microseconds.  The fast-path coefficients are calibrated from the B5
   benchmark (the committed BENCH_fastpaths.json,
   fast_ns / jobs at the quick scale): srpt/sjf/fcfs-index 0.15-0.16,
   hdf-index 0.31, setf-cascade 0.36, laps-dense 0.25, mlfq-ladder 0.37,
   wrr-age-dense 2.40, hybrid-index 0.38.  Absolute values drift by up to
   ~1.5x between runs with the shared host's phase (that file was written
   in a fast one, where srpt-index reads 0.15 against its 0.2 here); the
   ratios hold.
   Kernels B5 does not time (equal-share, quantum, wrr-static, budget)
   carry estimates interpolated from their event structure.  Only ratios
   matter —
   chunking needs to know that a 40-job probe is ~100x cheaper than a
   4000-job one and that a fast-pathed baseline is ~10x cheaper than a
   general-loop one at equal n, not the absolute times. *)
let estimated_cost_us cfg policy ~jobs =
  let class_cost : Rr_engine.Policy_class.t -> float = function
    | Equal_share -> 0.15
    | Static_key (Key_density _) -> 0.35
    | Static_key (Key_remaining | Key_size | Key_arrival) -> 0.2
    | Attained_cascade -> 0.45
    (* The slot/heap kernels (hybrid, budget) cost a heap operation per
       event like the indexes, plus slot scans (hybrid's three heaps
       make it the dearer of the two). *)
    | Starvation_hybrid _ -> 0.5
    | Preempt_budget _ -> 0.4
    | Latest_fraction _ -> 0.3
    | Level_ladder _ -> 0.45
    | Quantum_cycle _ -> 1.2
    | Aged_share _ -> 2.5
    | Sized_share _ -> 1.0
  in
  let per_job =
    match selection_for cfg policy with
    | General -> 2.0
    | Closed klass -> class_cost klass
    (* Same kernels plus the pending-queue and metric-fold overhead. *)
    | Live klass -> 0.15 +. class_cost klass
  in
  per_job *. Float.of_int jobs

let batch ?chunk pool cfg tasks =
  Pool.map ?chunk
    ~cost:(fun (p, inst) -> estimated_cost_us cfg p ~jobs:(Rr_workload.Instance.n inst))
    pool
    (fun (policy, inst) -> measure cfg policy inst)
    tasks

let stream_cost cfg (policy, stream) =
  estimated_cost_us cfg policy ~jobs:(Rr_workload.Instance.Stream.n stream)

let batch_stream ?chunk pool cfg tasks =
  Pool.map ?chunk ~cost:(stream_cost cfg) pool
    (fun (policy, stream) -> measure_stream cfg policy stream)
    tasks

let fold_stream ?chunk pool cfg ~sink ~merge ~init tasks =
  Pool.map_reduce ?chunk ~cost:(stream_cost cfg) pool
    ~map:(fun (policy, stream) ->
      (* The sink is built on the domain that folds it, so sink state is
         never shared across domains; only the finished value crosses. *)
      let s = sink () in
      let (_ : Rr_engine.Simulator.summary) =
        simulate_stream { cfg with record_trace = false } policy stream
          ~sink:(Rr_metrics.Sink.feed s)
      in
      Rr_metrics.Sink.value s)
    ~reduce:merge ~init tasks
