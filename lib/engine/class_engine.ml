(* Dense class kernels: specialised engines for the rate-vector policy
   classes whose decisions depend on the whole alive set — LAPS's
   latest-arrival share, MLFQ's attained-service ladder, the weighted
   proportional shares (age- and size-weighted), and discrete quantum
   round-robin.  See class_engine.mli.

   Unlike the priority-index kernels (index_engine.ml), these classes
   hand fractional rates to many jobs at once.  The engine keeps its
   jobs in exactly the order its class needs — admission order doubles
   as (arrival asc, id asc) for LAPS and, because age-derived weights are
   monotone in arrival, as (weight desc, id asc) for WRR-age; MLFQ keeps
   one bucket per ladder level — so it never sorts, never rebuilds policy
   views, and never runs the policy closure.  LAPS and MLFQ then pay per
   event only for the jobs they serve: LAPS's served set is a suffix of
   its vector, MLFQ's the buckets of its lowest occupied levels, and an
   unserved job neither moves nor completes.  The proportional shares
   and quantum round-robin serve every alive job (or touch only their m
   slots), so each of their events costs O(alive) or O(m).  The numeric
   kernels (capped proportional shares, the MLFQ ladder) are the shared
   ones in {!Policy_class}, and the fold orders, guards, and float
   expressions mirror the reference policies operation for operation, so
   on the same event sequence the two sides produce the same floats; the
   differential suite in test_simcore pins agreement to <= 1e-9 relative
   flow time. *)

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
   allocate-once-per-event discipline — for the kinds that give each job
   its own rate; LAPS and MLFQ keep one rate per served window or level
   instead, and never write it.  A retired record goes onto the state's
   free list and is refilled by a later admission, so in steady state an
   admission allocates nothing. *)
type jfl = {
  mutable arrival : float;
  mutable size : float;
  mutable remaining : float;
  mutable attained : float;
  mutable rate : float;
}

type djob = { mutable id : int; (* -1 marks a Quantum core's vacant slot *) f : jfl }

(* The state's own floats, all-float (flat) so their per-event writes
   never box. *)
type sfl = {
  mutable share : float;  (* Laps: the rate of every served job *)
  mutable due : float;  (* Ladder: earliest completion under the cached decision *)
}

type state = {
  kind : kind;
  machines : int;
  speed : float;
  jobs : djob Vec.t;  (* Laps / Aged / Sized: dense cores in class order, see [insert] *)
  vacant : djob;  (* Quantum: the empty-slot marker (id -1, never served) *)
  slots : djob array;  (* Quantum: seated jobs, one per machine *)
  deadlines : float array;  (* Quantum: per-slot quantum deadline *)
  mutable ready : djob array;
      (* Quantum: the FIFO ready queue, a ring of [n_ready] jobs from
         [r_head] whose length is a power of two; a push stores a
         pointer, never a cell *)
  mutable r_head : int;
  mutable n_ready : int;
  mutable tiny : int;
      (* Quantum: newcomers within [Clock.threshold] since the last
         settle, which may still sit in [ready] (see [settle]) *)
  ladder : Policy_class.ladder_table;  (* Ladder: thresholds and bands *)
  buckets : djob Vec.t array;  (* Ladder: the alive jobs of each level, unordered *)
  level_share : float array;  (* Ladder: rate per level, 0. from [served] up *)
  mutable served : int;  (* Ladder: every served job sits in a level below this *)
  mutable first : int;  (* Laps: [jobs] from index [first] on are served *)
  mutable settled : int;  (* Laps: [jobs] below this index have been through a settle *)
  sf : sfl;
  mutable weights : float array;  (* Aged / Sized scratch, capacity >= alive *)
  mutable suffix : float array;  (* capped_rates_into scratch, capacity >= alive + 1 *)
  mutable rates : float array;  (* capped_rates_into output, capacity >= alive *)
  clk : Clock.t;
  free : djob Vec.t;  (* retired records, refilled by [admit] *)
  mutable alive : int;
}

let create ~clk ~machines ~speed klass =
  let kind = kind_of_class klass in
  let vacant = { id = -1; f = { arrival = 0.; size = 0.; remaining = 0.; attained = 0.; rate = 0. } } in
  let levels = match kind with Ladder { levels; _ } -> levels | _ -> 0 in
  {
    kind;
    machines;
    speed;
    jobs = Vec.create ();
    vacant;
    slots = (match kind with Quantum _ -> Array.make machines vacant | _ -> [||]);
    deadlines = (match kind with Quantum _ -> Array.make machines Float.infinity | _ -> [||]);
    ready = [||];
    r_head = 0;
    n_ready = 0;
    tiny = 0;
    ladder =
      (match kind with
      | Ladder { base_quantum; factor; levels } ->
          Policy_class.ladder_table ~base_quantum ~factor ~levels
      | _ -> { Policy_class.thresholds = [||]; bands = [||] });
    buckets = Array.init levels (fun _ -> Vec.create ());
    level_share = Array.make levels 0.;
    served = 0;
    first = 0;
    settled = 0;
    sf = { share = 0.; due = Float.infinity };
    weights = [||];
    suffix = [||];
    rates = [||];
    clk;
    free = Vec.create ();
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

let ready_push st dj =
  let cap = Array.length st.ready in
  if st.n_ready = cap then begin
    let grown = Array.make (Int.max 16 (2 * cap)) st.vacant in
    for j = 0 to st.n_ready - 1 do
      grown.(j) <- st.ready.((st.r_head + j) land (cap - 1))
    done;
    st.ready <- grown;
    st.r_head <- 0
  end;
  st.ready.((st.r_head + st.n_ready) land (Array.length st.ready - 1)) <- dj;
  st.n_ready <- st.n_ready + 1

let ready_pop st =
  let dj = st.ready.(st.r_head) in
  st.ready.(st.r_head) <- st.vacant;
  st.r_head <- (st.r_head + 1) land (Array.length st.ready - 1);
  st.n_ready <- st.n_ready - 1;
  dj

(* Jobs must be admitted in (arrival asc, id asc) order — the order
   every source produces.  LAPS keeps that order directly (the policy
   serves the latest arrivals, i.e. a suffix of this vector); WRR-age
   keeps it because age is decreasing in admission order and the
   age-derived weight is monotone non-decreasing in age, so admission
   order IS (weight desc, id asc) at every instant; WRR-static inserts
   by its static weight; MLFQ files the newcomer under the level of zero
   attained service — 0 unless the base quantum sits inside the
   completion tolerance — and its buckets are unordered (rates depend
   only on levels). *)
let insert st dj =
  (match st.kind with
  | Laps _ | Aged _ -> Vec.push st.jobs dj
  | Ladder _ -> Vec.push st.buckets.(Policy_class.table_level st.ladder ~from:0 0.) dj
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
  | Quantum _ ->
      if dj.f.size <= Clock.threshold dj.f.size then st.tiny <- st.tiny + 1;
      ready_push st dj);
  st.alive <- st.alive + 1

(* The record of job [id], released at [clk.arrival] with size
   [clk.size]: a recycled one when the free list has one. *)
let take st id =
  let n = Vec.length st.free in
  let dj =
    if n = 0 then { id; f = { arrival = 0.; size = 0.; remaining = 0.; attained = 0.; rate = 0. } }
    else begin
      let dj = Vec.get st.free (n - 1) in
      Vec.swap_remove st.free (n - 1);
      dj.id <- id;
      dj
    end
  in
  let f = dj.f in
  f.arrival <- st.clk.arrival;
  f.size <- st.clk.size;
  f.remaining <- st.clk.size;
  f.attained <- 0.;
  f.rate <- 0.;
  dj

let admit st id = insert st (take st id)

(* Hand a completed job to the log and its record to the free list. *)
let[@inline] retire st out (dj : djob) =
  let f = dj.f in
  Clock.retire out ~id:dj.id ~arrival:f.arrival ~flow:(st.clk.now -. f.arrival);
  Vec.push st.free dj

(* MLFQ's decision at [st.clk.now].  Levels are served lowest-first with
   the mirror policy's block arithmetic (and its 1e-12 exhaustion guard);
   the sweep stops at the first level that finds the machines exhausted
   or once every alive job has been counted, since every level past that
   point gets rate 0.  One pass over the served buckets then finds the
   horizon (the first promotion) and the earliest completion, with
   [v = share *. speed] — the float [rate *. speed] gives for every job
   of the level.  [now +. x /. v] is monotone in [x], each step being
   correctly rounded, so a level's earliest completion is that of its
   least remaining work and its first promotion that of its least gap
   above 1e-12: the same floats as a division per job, at one per
   level.  Job levels are current: [finish] re-levels every job it
   serves, and no other job's attained service moves. *)
let ladder_refresh st ~levels =
  let clk = st.clk in
  let now = clk.now in
  let left = ref (Float.of_int st.machines) in
  let counted = ref 0 in
  let lvl = ref 0 in
  while !lvl < levels && !left > 1e-12 && !counted < st.alive do
    let count = Vec.length st.buckets.(!lvl) in
    if count > 0 then begin
      let c = Float.of_int count in
      let share = Float.min 1. (!left /. c) in
      st.level_share.(!lvl) <- share;
      left := !left -. (share *. c);
      counted := !counted + count
    end
    else st.level_share.(!lvl) <- 0.;
    incr lvl
  done;
  for l = !lvl to st.served - 1 do
    st.level_share.(l) <- 0.
  done;
  st.served <- !lvl;
  let horizon = ref Float.infinity and due = ref Float.infinity in
  for l = 0 to st.served - 1 do
    let b = st.buckets.(l) in
    if Vec.length b > 0 then begin
      (* The last level promotes nobody: its infinite threshold leaves
         [gap] infinite. *)
      let threshold =
        if l < levels - 1 then st.ladder.thresholds.(l) else Float.infinity
      in
      let least = ref Float.infinity and gap = ref Float.infinity in
      for i = 0 to Vec.length b - 1 do
        let f = (Vec.get b i).f in
        if f.remaining < !least then least := f.remaining;
        let g = threshold -. f.attained in
        if g > 1e-12 && g < !gap then gap := g
      done;
      let v = st.level_share.(l) *. st.speed in
      let c = now +. (!least /. v) in
      if c < !due then due := c;
      if !gap < Float.infinity then begin
        let t = now +. (!gap /. v) in
        if t < !horizon then horizon := t
      end
    end
  done;
  clk.horizon <- !horizon;
  st.sf.due <- !due

(* Mirror of one [allocate] call at [st.clk.now]: recompute the cached
   decision and the decision horizon.  Run exactly once per event, after
   completions and admissions have settled — the same place the general
   loop invokes the policy. *)
let refresh st =
  let clk = st.clk in
  let now = clk.now in
  match st.kind with
  | Laps { beta } ->
      (* The latest ceil(beta n) arrivals — the suffix from [first] —
         share the machines equally; every earlier job gets rate 0. *)
      let n = Vec.length st.jobs in
      if n > 0 then begin
        let share_count = Int.max 1 (int_of_float (Float.ceil (beta *. Float.of_int n))) in
        st.sf.share <- Float.min 1. (Float.of_int st.machines /. Float.of_int share_count);
        st.first <- n - share_count
      end;
      clk.horizon <- Float.infinity
  | Ladder { levels; _ } -> ladder_refresh st ~levels
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
          ready_push st dj;
          st.slots.(s) <- st.vacant
        end
      done;
      for s = 0 to st.machines - 1 do
        if st.slots.(s).id < 0 && st.n_ready > 0 then begin
          let dj = ready_pop st in
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
   completion -> arrival -> horizon sequencing needs no replication.
   MLFQ's earliest completion was found by [refresh] and is read back
   here: a live engine scans again after a horizon split, with nothing
   changed. *)
let next_internal st =
  let clk = st.clk in
  let now = clk.now in
  let t = ref clk.horizon in
  (match st.kind with
  | Ladder _ -> if st.sf.due < !t then t := st.sf.due
  | Laps _ ->
      (* One rate for the whole window: its earliest completion is that
         of its least remaining work (see [ladder_refresh]). *)
      let least = ref Float.infinity in
      for i = st.first to Vec.length st.jobs - 1 do
        let r = (Vec.get st.jobs i).f.remaining in
        if r < !least then least := r
      done;
      let c = now +. (!least /. (st.sf.share *. st.speed)) in
      if c < !t then t := c
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
  | Aged _ | Sized _ ->
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

(* Remove [jobs.(i)], shifting the suffix left to preserve the class
   order. *)
let remove_ordered st i =
  let len = Vec.length st.jobs in
  for p = i to len - 2 do
    Vec.set st.jobs p (Vec.get st.jobs (p + 1))
  done;
  Vec.swap_remove st.jobs (len - 1);
  st.alive <- st.alive - 1

(* MLFQ's event: one pass over the served levels that advances each job
   by its level's rate, retires it if complete, and otherwise moves it up
   to the level its new attained service reaches.  Levels are walked from
   the highest served one down, so a job moved up lands in a level this
   pass has already walked and is never advanced twice; within a bucket
   the walk runs downwards, because of swap-remove.  Only served jobs can
   complete: an unserved job's remaining work has not moved since the
   settle that found it above the threshold, and a newcomer sits in the
   level of zero attained service, the lowest occupied one, which is
   always served. *)
let ladder_finish st out =
  let dt = st.clk.dt in
  for l = st.served - 1 downto 0 do
    let b = st.buckets.(l) in
    let delta = st.level_share.(l) *. st.speed *. dt in
    for i = Vec.length b - 1 downto 0 do
      let dj = Vec.get b i in
      let f = dj.f in
      f.remaining <- f.remaining -. delta;
      f.attained <- f.attained +. delta;
      if f.remaining <= Clock.threshold f.size then begin
        Vec.swap_remove b i;
        retire st out dj;
        st.alive <- st.alive - 1
      end
      else begin
        let up = Policy_class.table_level st.ladder ~from:l f.attained in
        if up <> l then begin
          Vec.swap_remove b i;
          Vec.push st.buckets.(up) dj
        end
      end
    done
  done

(* LAPS's event: advance and settle the served suffix in one downward
   pass.  Jobs before [first] have rate 0, and one that has been through
   a settle cannot complete.  A newcomer outside the window can: a size
   within [Clock.threshold] of zero is complete at the first event after
   its admission, served or not, as in the general loop — so the jobs
   admitted since the last event get that one check. *)
let laps_finish st out =
  let delta = st.sf.share *. st.speed *. st.clk.dt in
  for i = Vec.length st.jobs - 1 downto st.first do
    let dj = Vec.get st.jobs i in
    let f = dj.f in
    f.remaining <- f.remaining -. delta;
    if f.remaining <= Clock.threshold f.size then begin
      remove_ordered st i;
      retire st out dj
    end
  done;
  for i = st.first - 1 downto st.settled do
    let dj = Vec.get st.jobs i in
    if dj.f.remaining <= Clock.threshold dj.f.size then begin
      remove_ordered st i;
      retire st out dj
    end
  done;
  st.settled <- Vec.length st.jobs

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

(* Retire completed jobs at [st.clk.now].  The proportional cores check
   the whole vector (the general loop does too, and it costs nothing
   extra at O(alive) per event); the quantum core checks its slots —
   queued jobs have rate 0, and only a newcomer within the threshold of
   zero can be complete there: the general loop retires it at the first
   event after its release, served or not, so when one was admitted
   since the last settle the queue is filtered once, in order.
   Downward sweeps: indices below [i] are untouched by a removal. *)
let settle st out =
  match st.kind with
  | Quantum _ ->
      for s = 0 to st.machines - 1 do
        let dj = st.slots.(s) in
        if dj.id >= 0 && dj.f.remaining <= Clock.threshold dj.f.size then begin
          retire st out dj;
          st.slots.(s) <- st.vacant;
          st.alive <- st.alive - 1
        end
      done;
      if st.tiny > 0 then begin
        for _ = 1 to st.n_ready do
          let dj = ready_pop st in
          if dj.f.remaining <= Clock.threshold dj.f.size then begin
            retire st out dj;
            st.alive <- st.alive - 1
          end
          else ready_push st dj
        done;
        st.tiny <- 0
      end
  | _ ->
      for i = Vec.length st.jobs - 1 downto 0 do
        let dj = Vec.get st.jobs i in
        if dj.f.remaining <= Clock.threshold dj.f.size then begin
          remove_ordered st i;
          retire st out dj
        end
      done

let finish st out =
  let clk = st.clk in
  match st.kind with
  | Ladder _ ->
      clk.now <- clk.t_next;
      ladder_finish st out
  | Laps _ ->
      clk.now <- clk.t_next;
      laps_finish st out
  | Aged _ | Sized _ | Quantum _ ->
      advance st;
      clk.now <- clk.t_next;
      settle st out

let iter_alive st f =
  let g dj = f dj.id dj.f.arrival dj.f.rate in
  match st.kind with
  | Quantum _ ->
      Array.iter (fun dj -> if dj.id >= 0 then g dj) st.slots;
      for j = 0 to st.n_ready - 1 do
        g st.ready.((st.r_head + j) land (Array.length st.ready - 1))
      done
  | Ladder _ ->
      Array.iteri
        (fun l b -> Vec.iter (fun dj -> f dj.id dj.f.arrival st.level_share.(l)) b)
        st.buckets
  | Laps _ ->
      for i = 0 to Vec.length st.jobs - 1 do
        let dj = Vec.get st.jobs i in
        f dj.id dj.f.arrival (if i >= st.first then st.sf.share else 0.)
      done
  | Aged _ | Sized _ -> Vec.iter g st.jobs
