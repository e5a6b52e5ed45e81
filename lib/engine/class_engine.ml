(* Dense class kernels: specialised engines for the rate-vector policy
   classes whose decisions depend on the whole alive set — LAPS's
   latest-arrival share, MLFQ's attained-service ladder, the weighted
   proportional shares (age- and size-weighted), and discrete quantum
   round-robin.  See class_engine.mli.

   Unlike the priority-index kernels (index_engine.ml), these classes
   hand fractional rates to many jobs at once, so each event still costs
   O(alive); the win over the general loop is structural.  The engine
   keeps its jobs in exactly the order its class needs — admission order
   doubles as (arrival asc, id asc) for LAPS and, because age-derived
   weights are monotone in arrival, as (weight desc, id asc) for WRR-age
   — so it never sorts, never rebuilds policy views, and never runs the
   policy closure.  The numeric kernels (capped proportional shares, the
   MLFQ ladder) are the shared ones in {!Policy_class}, and the fold
   orders, guards, and float expressions mirror the reference policies
   operation for operation, so on the same event sequence the two sides
   produce the same floats; the differential suite in test_simcore pins
   agreement to <= 1e-9 relative flow time. *)

module Vec = Rr_util.Vec
module Source = Simulator.Source

type kind =
  | Laps of { beta : float }
  | Ladder of { base_quantum : float; factor : float; levels : int }
  | Aged of { k : int; refresh : float; offset : float }
  | Sized of { gamma : float }
  | Quantum of { quantum : float }

let kind_of_class = function
  | Policy_class.Latest_fraction { beta } -> Some (Laps { beta })
  | Policy_class.Level_ladder { base_quantum; factor; levels } ->
      Some (Ladder { base_quantum; factor; levels })
  | Policy_class.Aged_share { k; refresh; offset } -> Some (Aged { k; refresh; offset })
  | Policy_class.Sized_share { gamma } -> Some (Sized { gamma })
  | Policy_class.Quantum_cycle { quantum } -> Some (Quantum { quantum })
  | Policy_class.Equal_share | Policy_class.Static_key _ | Policy_class.Attained_cascade
  | Policy_class.Starvation_hybrid _ | Policy_class.Preempt_budget _ ->
      None

let class_of_kind = function
  | Laps { beta } -> Policy_class.Latest_fraction { beta }
  | Ladder { base_quantum; factor; levels } ->
      Policy_class.Level_ladder { base_quantum; factor; levels }
  | Aged { k; refresh; offset } -> Policy_class.Aged_share { k; refresh; offset }
  | Sized { gamma } -> Policy_class.Sized_share { gamma }
  | Quantum { quantum } -> Policy_class.Quantum_cycle { quantum }

(* One job record per alive job, owned by the engine for its whole
   lifetime.  The floats live in an all-float record ([jfl]), whose
   representation is flat: the per-event writes of [remaining],
   [attained] and [rate] are plain unboxed stores.  In a record that also
   held the int fields every such write would box a fresh float — the
   build has no flambda to unbox them.  [rate] caches the last decision
   for the whole inter-event interval, however the live engine splits it
   at [step] targets — exactly the general loop's allocate-once-per-event
   discipline, which is what keeps WRR-age's drifting weights
   split-safe. *)
type jfl = {
  arrival : float;
  size : float;
  mutable remaining : float;
  mutable attained : float;
  mutable rate : float;
}

type djob = {
  id : int;  (* -1 marks a Quantum core's vacant slot *)
  mutable level : int;  (* Ladder only: MLFQ level as of the last refresh *)
  f : jfl;
}

(* The engine's clock, decision horizon and event-scan output, plus the
   closed driver's buffered next arrival and makespan: all-float, hence
   flat, for the same reason as [jfl].  The incremental entry points
   below take [now]/[dt] as arguments and park them here; the closed
   driver writes the fields directly and never passes a float across a
   call. *)
type clock = {
  mutable now : float;
  mutable dt : float;
  mutable horizon : float;  (* decision horizon; +inf when none *)
  mutable t_next : float;  (* earliest internal event, from [scan_next] *)
  mutable next_arr : float;  (* closed driver: next pending arrival *)
  mutable makespan : float;  (* closed driver: last completion *)
}

type state = {
  kind : kind;
  machines : int;
  speed : float;
  jobs : djob Vec.t;  (* dense cores; class-specific order, see [admit] *)
  vacant : djob;  (* Quantum: the empty-slot marker (id -1, never served) *)
  slots : djob array;  (* Quantum: seated jobs, one per machine *)
  deadlines : float array;  (* Quantum: per-slot quantum deadline *)
  ready : djob Queue.t;  (* Quantum: FIFO ready queue *)
  ladder : Policy_class.ladder_table;  (* Ladder: thresholds and bands *)
  level_counts : int array;  (* Ladder scratch: alive jobs per level *)
  level_share : float array;  (* Ladder scratch: rate per level *)
  mutable weights : float array;  (* Aged / Sized scratch, capacity >= alive *)
  mutable suffix : float array;  (* capped_rates_into scratch, capacity >= alive + 1 *)
  mutable rates : float array;  (* capped_rates_into output, capacity >= alive *)
  clk : clock;
  mutable alive : int;
}

let[@inline] make_job ~id ~arrival ~size =
  { id; level = 0; f = { arrival; size; remaining = size; attained = 0.; rate = 0. } }

let create ~machines ~speed kind =
  if machines < 1 then invalid_arg "Class_engine.create: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Class_engine.create: speed must be finite and positive";
  (match Policy_class.validate (class_of_kind kind) with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Class_engine.create: " ^ msg));
  let vacant = make_job ~id:(-1) ~arrival:0. ~size:0. in
  {
    kind;
    machines;
    speed;
    jobs = Vec.create ();
    vacant;
    slots = (match kind with Quantum _ -> Array.make machines vacant | _ -> [||]);
    deadlines = (match kind with Quantum _ -> Array.make machines Float.infinity | _ -> [||]);
    ready = Queue.create ();
    ladder =
      (match kind with
      | Ladder { base_quantum; factor; levels } ->
          Policy_class.ladder_table ~base_quantum ~factor ~levels
      | _ -> { Policy_class.thresholds = [||]; bands = [||] });
    level_counts = (match kind with Ladder { levels; _ } -> Array.make levels 0 | _ -> [||]);
    level_share = (match kind with Ladder { levels; _ } -> Array.make levels 0. | _ -> [||]);
    weights = [||];
    suffix = [||];
    rates = [||];
    clk =
      {
        now = 0.;
        dt = 0.;
        horizon = Float.infinity;
        t_next = Float.infinity;
        next_arr = Float.infinity;
        makespan = 0.;
      };
    alive = 0;
  }

(* Grow-only scratch for the weight-proportional kinds: the buffers track
   the alive high-water mark, so in steady state a refresh allocates
   nothing — the pre-arena version made three exact-size arrays per
   event. *)
let ensure_scratch st n =
  if Array.length st.weights < n then begin
    let cap = Int.max 16 (Int.max n (2 * Array.length st.weights)) in
    st.weights <- Array.make cap 0.;
    st.rates <- Array.make cap 0.;
    st.suffix <- Array.make (cap + 1) 0.
  end

let alive st = st.alive

(* Same float as Simulator.completion_threshold, inlined into the hot
   loop. *)
let[@inline] threshold size = 1e-9 *. (1. +. size)

(* Jobs must be admitted in (arrival asc, id asc) order — the order
   every source produces.  LAPS keeps that order directly (the policy
   serves the latest arrivals, i.e. a suffix of this vector); WRR-age
   keeps it because age is decreasing in admission order and the
   age-derived weight is monotone non-decreasing in age, so admission
   order IS (weight desc, id asc) at every instant; WRR-static inserts
   by its static weight; MLFQ's vector is unordered (rates depend only
   on levels). *)
let insert st dj =
  (match st.kind with
  | Laps _ | Ladder _ | Aged _ -> Vec.push st.jobs dj
  | Sized { gamma } ->
      (* Keep (weight desc, id asc).  The newcomer has the largest id, so
         it goes after every incumbent of weight >= its own: shift the
         strictly-lighter suffix right by one. *)
      let w = dj.f.size ** gamma in
      Vec.push st.jobs dj;
      let i = ref (Vec.length st.jobs - 1) in
      while !i > 0 && (Vec.get st.jobs (!i - 1)).f.size ** gamma < w do
        Vec.set st.jobs !i (Vec.get st.jobs (!i - 1));
        decr i
      done;
      Vec.set st.jobs !i dj
  | Quantum _ -> Queue.push dj st.ready);
  st.alive <- st.alive + 1

let admit st ~id ~arrival ~size = insert st (make_job ~id ~arrival ~size)

(* Mirror of one [allocate] call at [st.clk.now]: recompute every cached
   rate and the decision horizon.  Run exactly once per event, after
   completions and admissions have settled — the same place the general
   loop invokes the policy. *)
let refresh_now st =
  let clk = st.clk in
  let now = clk.now in
  match st.kind with
  | Laps { beta } ->
      let n = Vec.length st.jobs in
      if n > 0 then begin
        let share_count = Int.max 1 (int_of_float (Float.ceil (beta *. Float.of_int n))) in
        let share = Float.min 1. (Float.of_int st.machines /. Float.of_int share_count) in
        let first = n - share_count in
        for i = 0 to n - 1 do
          (Vec.get st.jobs i).f.rate <- (if i >= first then share else 0.)
        done
      end;
      clk.horizon <- Float.infinity
  | Ladder { levels; _ } ->
      let n = Vec.length st.jobs in
      Array.fill st.level_counts 0 levels 0;
      (* Each job's level moves forward from its cached one (see
         [Policy_class.table_level]): the same level [ladder_level] would
         compute from 0, at the cost of the levels actually climbed. *)
      for i = 0 to n - 1 do
        let dj = Vec.get st.jobs i in
        dj.level <- Policy_class.table_level st.ladder ~from:dj.level dj.f.attained;
        st.level_counts.(dj.level) <- st.level_counts.(dj.level) + 1
      done;
      (* Serve levels lowest-first; same block arithmetic (and the same
         1e-12 exhaustion guard) as the mirror policy's sorted sweep. *)
      let left = ref (Float.of_int st.machines) in
      for lvl = 0 to levels - 1 do
        if st.level_counts.(lvl) > 0 && !left > 1e-12 then begin
          let count = Float.of_int st.level_counts.(lvl) in
          let share = Float.min 1. (!left /. count) in
          st.level_share.(lvl) <- share;
          left := !left -. (share *. count)
        end
        else st.level_share.(lvl) <- 0.
      done;
      let horizon = ref Float.infinity in
      for i = 0 to n - 1 do
        let dj = Vec.get st.jobs i in
        let f = dj.f in
        f.rate <- st.level_share.(dj.level);
        if f.rate > 0. && dj.level < levels - 1 then begin
          let gap = st.ladder.thresholds.(dj.level) -. f.attained in
          if gap > 1e-12 then begin
            let t = now +. (gap /. (f.rate *. st.speed)) in
            if t < !horizon then horizon := t
          end
        end
      done;
      clk.horizon <- !horizon
  | Aged { k; refresh; offset } ->
      let n = Vec.length st.jobs in
      ensure_scratch st n;
      for i = 0 to n - 1 do
        st.weights.(i) <-
          Rr_util.Floatx.powi ((now -. (Vec.get st.jobs i).f.arrival) +. offset) (k - 1)
      done;
      Policy_class.capped_rates_into ~machines:st.machines ~n ~weights:st.weights
        ~suffix:st.suffix ~rates:st.rates;
      let youngest = ref Float.infinity in
      for i = 0 to n - 1 do
        let f = (Vec.get st.jobs i).f in
        f.rate <- st.rates.(i);
        youngest := Float.min !youngest (now -. f.arrival)
      done;
      clk.horizon <-
        (if k = 1 || n = 0 then Float.infinity
         else now +. Float.max 1e-6 (refresh *. (!youngest +. offset)))
  | Sized { gamma } ->
      let n = Vec.length st.jobs in
      ensure_scratch st n;
      for i = 0 to n - 1 do
        st.weights.(i) <- (Vec.get st.jobs i).f.size ** gamma
      done;
      Policy_class.capped_rates_into ~machines:st.machines ~n ~weights:st.weights
        ~suffix:st.suffix ~rates:st.rates;
      for i = 0 to n - 1 do
        (Vec.get st.jobs i).f.rate <- st.rates.(i)
      done;
      clk.horizon <- Float.infinity
  | Quantum { quantum } ->
      (* Expired quanta first (incumbent to the back of the queue), then
         refill idle machines — the mirror policy's transition order. *)
      for s = 0 to st.machines - 1 do
        let dj = st.slots.(s) in
        if dj.id >= 0 && now >= st.deadlines.(s) -. 1e-12 then begin
          dj.f.rate <- 0.;
          Queue.push dj st.ready;
          st.slots.(s) <- st.vacant
        end
      done;
      for s = 0 to st.machines - 1 do
        if st.slots.(s).id < 0 && not (Queue.is_empty st.ready) then begin
          let dj = Queue.pop st.ready in
          dj.f.rate <- 1.;
          st.slots.(s) <- dj;
          st.deadlines.(s) <- now +. quantum
        end
      done;
      let horizon = ref Float.infinity in
      for s = 0 to st.machines - 1 do
        if st.slots.(s).id >= 0 && st.deadlines.(s) < !horizon then horizon := st.deadlines.(s)
      done;
      clk.horizon <- !horizon

(* Earliest internal event under the cached decision, into
   [st.clk.t_next]: analytic completion or decision horizon, whichever
   first.  The caller folds in the next arrival; the min over all three
   is the same float whatever the fold order, so the general loop's
   completion -> arrival -> horizon sequencing needs no replication. *)
let scan_next st =
  let clk = st.clk in
  let now = clk.now in
  let t = ref clk.horizon in
  (match st.kind with
  | Quantum _ ->
      for s = 0 to st.machines - 1 do
        let dj = st.slots.(s) in
        if dj.id >= 0 then begin
          let v = dj.f.rate *. st.speed in
          if v > 0. then begin
            let c = now +. (dj.f.remaining /. v) in
            if c < !t then t := c
          end
        end
      done
  | _ ->
      let n = Vec.length st.jobs in
      for i = 0 to n - 1 do
        let f = (Vec.get st.jobs i).f in
        let v = f.rate *. st.speed in
        if v > 0. then begin
          let c = now +. (f.remaining /. v) in
          if c < !t then t := c
        end
      done);
  clk.t_next <- !t

(* Advance every served job by the cached rates for [st.clk.dt]; a zero
   rate is a bit-exact no-op in the general loop, so skipping those jobs
   changes nothing. *)
let advance_dt st =
  let dt = st.clk.dt in
  match st.kind with
  | Quantum _ ->
      for s = 0 to st.machines - 1 do
        let dj = st.slots.(s) in
        if dj.id >= 0 then begin
          let f = dj.f in
          let delta = f.rate *. st.speed *. dt in
          f.remaining <- f.remaining -. delta;
          f.attained <- f.attained +. delta
        end
      done
  | _ ->
      let n = Vec.length st.jobs in
      for i = 0 to n - 1 do
        let f = (Vec.get st.jobs i).f in
        if f.rate > 0. then begin
          let delta = f.rate *. st.speed *. dt in
          f.remaining <- f.remaining -. delta;
          f.attained <- f.attained +. delta
        end
      done

(* Retire completed jobs at [st.clk.now].  The dense cores check the
   whole vector (the general loop does too, and it costs nothing extra at
   O(alive) per event); the quantum core checks its slots — queued jobs
   have rate 0 and cannot cross the threshold. *)
let settle_now st (complete : Simulator.sink) =
  let now = st.clk.now in
  match st.kind with
  | Quantum _ ->
      for s = 0 to st.machines - 1 do
        let dj = st.slots.(s) in
        if dj.id >= 0 && dj.f.remaining <= threshold dj.f.size then begin
          complete ~id:dj.id ~arrival:dj.f.arrival ~flow:(now -. dj.f.arrival);
          st.slots.(s) <- st.vacant;
          st.alive <- st.alive - 1
        end
      done
  | Ladder _ ->
      (* Unordered vector: swap-remove, iterating downwards. *)
      for i = Vec.length st.jobs - 1 downto 0 do
        let dj = Vec.get st.jobs i in
        if dj.f.remaining <= threshold dj.f.size then begin
          complete ~id:dj.id ~arrival:dj.f.arrival ~flow:(now -. dj.f.arrival);
          Vec.swap_remove st.jobs i;
          st.alive <- st.alive - 1
        end
      done
  | Laps _ | Aged _ | Sized _ ->
      (* Ordered vectors: shift the suffix left to preserve the class
         order.  Indices below [i] are untouched, so the downward sweep
         stays valid. *)
      for i = Vec.length st.jobs - 1 downto 0 do
        let dj = Vec.get st.jobs i in
        if dj.f.remaining <= threshold dj.f.size then begin
          complete ~id:dj.id ~arrival:dj.f.arrival ~flow:(now -. dj.f.arrival);
          let len = Vec.length st.jobs in
          for p = i to len - 2 do
            Vec.set st.jobs p (Vec.get st.jobs (p + 1))
          done;
          Vec.swap_remove st.jobs (len - 1);
          st.alive <- st.alive - 1
        end
      done

(* The incremental interface: each entry point parks its float argument
   in the clock record and runs the closed driver's primitive. *)
let refresh st ~now =
  st.clk.now <- now;
  refresh_now st

let next_internal st ~now =
  st.clk.now <- now;
  scan_next st;
  st.clk.t_next

let advance st ~dt =
  st.clk.dt <- dt;
  advance_dt st

let settle st ~now ~complete =
  st.clk.now <- now;
  settle_now st complete

let iter_alive st f =
  match st.kind with
  | Quantum _ ->
      Array.iter (fun dj -> if dj.id >= 0 then f dj) st.slots;
      Queue.iter f st.ready
  | _ -> Vec.iter f st.jobs

(* ------------------------------------------------------------------ *)
(* Closed event loop                                                   *)
(* ------------------------------------------------------------------ *)

(* Nothing here is built per event: the driver's clock lives in the
   state's flat [clock] record, admission reads the source's raw cursor
   (no [Job.t], no option), the per-run [complete] closure forwards the
   sink's boxed arguments untouched, and every primitive takes the state
   alone. *)
let dense_core ~record_trace ~speed ~max_events ~machines ~kind ~(source : Source.t)
    ~(completions : float array) ~(sink : Simulator.sink) =
  let scratch = Arena.borrow () in
  Fun.protect ~finally:(fun () -> Arena.release scratch) @@ fun () ->
  let st = create ~machines ~speed kind in
  let clk = st.clk in
  let max_alive = ref 0 in
  let admit_upto () =
    while clk.next_arr <= clk.now do
      insert st
        (make_job ~id:(Source.head_id source) ~arrival:(Source.head_arrival source)
           ~size:(Source.head_size source));
      Source.advance source;
      clk.next_arr <- Source.next_arrival source
    done;
    if st.alive > !max_alive then max_alive := st.alive
  in
  let completed = ref 0 in
  let events = ref 0 in
  let record = Array.length completions > 0 in
  let complete ~id ~arrival ~flow =
    if record then completions.(id) <- clk.now;
    sink ~id ~arrival ~flow;
    incr completed;
    clk.makespan <- clk.now
  in
  let trace_arena : Trace.segment Vec.t = Arena.segments_of scratch in
  let push_trace ~t0 ~t1 =
    let entries = Array.make st.alive { Trace.job = -1; arrival = 0.; rate = 0. } in
    let next = ref 0 in
    iter_alive st (fun dj ->
        entries.(!next) <- { Trace.job = dj.id; arrival = dj.f.arrival; rate = dj.f.rate };
        incr next);
    Vec.push trace_arena { Trace.t0; t1; alive = entries }
  in
  clk.now <- (if Source.has_more source then Source.head_arrival source else 0.);
  clk.next_arr <- Source.next_arrival source;
  admit_upto ();
  while st.alive > 0 || Source.has_more source do
    incr events;
    if !events > max_events then
      raise (Simulator.Event_limit_exceeded { limit = max_events; now = clk.now });
    if st.alive = 0 then begin
      (* Idle period: jump straight to the next arrival. *)
      clk.now <- clk.next_arr;
      admit_upto ()
    end
    else begin
      refresh_now st;
      scan_next st;
      if clk.next_arr < clk.t_next then clk.t_next <- clk.next_arr;
      if not (Float.is_finite clk.t_next) then
        raise
          (Simulator.Invalid_allocation
             "alive jobs receive no service and no arrival or horizon is pending");
      clk.dt <- clk.t_next -. clk.now;
      assert (clk.dt > 0.);
      if record_trace then push_trace ~t0:clk.now ~t1:clk.t_next;
      advance_dt st;
      clk.now <- clk.t_next;
      settle_now st complete;
      admit_upto ()
    end
  done;
  ( {
      Simulator.n = !completed;
      events = !events;
      machines;
      speed;
      makespan = clk.makespan;
      max_alive = !max_alive;
    },
    Vec.to_list trace_arena )

let no_sink : Simulator.sink = fun ~id:_ ~arrival:_ ~flow:_ -> ()

let run ?(record_trace = false) ?(speed = 1.) ?(max_events = 10_000_000) ?(sink = no_sink)
    ~machines ~kind jobs =
  let n = Simulator.validate_jobs jobs in
  let jobs_arr = Simulator.jobs_by_id jobs n in
  let order = Simulator.release_order jobs n in
  let completions = Array.make n Float.nan in
  let summary, trace =
    dense_core ~record_trace ~speed ~max_events ~machines ~kind
      ~source:(Source.of_array order) ~completions ~sink
  in
  {
    Simulator.jobs = jobs_arr;
    completions;
    trace;
    machines;
    speed;
    events = summary.Simulator.events;
  }

let run_stream ?(speed = 1.) ?(max_events = 10_000_000) ~machines ~kind ~sink fill =
  let summary, _trace =
    dense_core ~record_trace:false ~speed ~max_events ~machines ~kind
      ~source:(Source.of_raw fill) ~completions:[||] ~sink
  in
  summary
