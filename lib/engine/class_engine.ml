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

type kind =
  | Laps of { beta : float }
  | Ladder of { base_quantum : float; factor : float; levels : int }
  | Aged of { k : int; refresh : float; offset : float }
  | Sized of { gamma : float }
  | Quantum of { quantum : float }

let kind_of_class = function
  | Policy_class.Latest_fraction { beta } -> Laps { beta }
  | Policy_class.Level_ladder { base_quantum; factor; levels } ->
      Ladder { base_quantum; factor; levels }
  | Policy_class.Aged_share { k; refresh; offset } -> Aged { k; refresh; offset }
  | Policy_class.Sized_share { gamma } -> Sized { gamma }
  | Policy_class.Quantum_cycle { quantum } -> Quantum { quantum }
  | Policy_class.Equal_share | Policy_class.Static_key _ | Policy_class.Attained_cascade
  | Policy_class.Starvation_hybrid _ | Policy_class.Preempt_budget _ ->
      invalid_arg "Class_engine.create: not a dense class"

(* One job record per alive job, owned by the engine for its whole
   lifetime.  The floats live in an all-float record ([jfl]), whose
   representation is flat: the per-event writes of [remaining],
   [attained] and [rate] are plain unboxed stores.  In a record that also
   held the int fields every such write would box a fresh float — the
   build has no flambda to unbox them.  [rate] caches the last decision
   for the whole inter-event interval — exactly the general loop's
   allocate-once-per-event discipline. *)
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
  clk : Clock.t;
  mutable alive : int;
}

let[@inline] make_job ~id ~arrival ~size =
  { id; level = 0; f = { arrival; size; remaining = size; attained = 0.; rate = 0. } }

let create ~clk ~machines ~speed klass =
  let kind = kind_of_class klass in
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
    clk;
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

let admit st id = insert st (make_job ~id ~arrival:st.clk.arrival ~size:st.clk.size)

(* Mirror of one [allocate] call at [st.clk.now]: recompute every cached
   rate and the decision horizon.  Run exactly once per event, after
   completions and admissions have settled — the same place the general
   loop invokes the policy. *)
let refresh st =
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
let next_internal st =
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
let advance st =
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
let settle st (complete : Clock.sink) =
  let now = st.clk.now in
  match st.kind with
  | Quantum _ ->
      for s = 0 to st.machines - 1 do
        let dj = st.slots.(s) in
        if dj.id >= 0 && dj.f.remaining <= Clock.threshold dj.f.size then begin
          complete ~id:dj.id ~arrival:dj.f.arrival ~flow:(now -. dj.f.arrival);
          st.slots.(s) <- st.vacant;
          st.alive <- st.alive - 1
        end
      done
  | Ladder _ ->
      (* Unordered vector: swap-remove, iterating downwards. *)
      for i = Vec.length st.jobs - 1 downto 0 do
        let dj = Vec.get st.jobs i in
        if dj.f.remaining <= Clock.threshold dj.f.size then begin
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
        if dj.f.remaining <= Clock.threshold dj.f.size then begin
          complete ~id:dj.id ~arrival:dj.f.arrival ~flow:(now -. dj.f.arrival);
          let len = Vec.length st.jobs in
          for p = i to len - 2 do
            Vec.set st.jobs p (Vec.get st.jobs (p + 1))
          done;
          Vec.swap_remove st.jobs (len - 1);
          st.alive <- st.alive - 1
        end
      done

let iter_alive st f =
  let g dj = f dj.id dj.f.arrival dj.f.rate in
  match st.kind with
  | Quantum _ ->
      Array.iter (fun dj -> if dj.id >= 0 then g dj) st.slots;
      Queue.iter g st.ready
  | _ -> Vec.iter g st.jobs

