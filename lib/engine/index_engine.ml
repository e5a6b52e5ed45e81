(* Priority-index scheduling kernels: slot/heap kernels for the
   fixed-priority comparator policies (SRPT / SJF / FCFS / HDF) and a
   virtual-time cascade for SETF.  See index_engine.mli for the
   user-facing contract.

   The fixed-priority engines exploit that between events the served set
   is exactly the m alive jobs smallest under a per-job key that never
   crosses another job's key while both wait: remaining work only
   decreases for *served* jobs (SRPT), and size / arrival never change at
   all (SJF / FCFS).  So instead of re-sorting the alive set per event
   (the general loop's O(alive log alive) policy invocation), the engine
   keeps the <= m running jobs in a flat slot array scanned in O(m) and
   everything else in a binary heap ordered by (key, id) — each event
   costs O(m + log alive).

   Arithmetic is kept operation-for-operation identical to the general
   loop under rate 1 (completion candidate [now +. remaining /. speed],
   advance [remaining -. (speed *. dt)] since [1. *. x = x] exactly, and
   the shared completion threshold; the driver supplies the same
   completion-beats-arrival tie rule), so on the same event sequence the
   engines produce the same floats; the differential suite in
   test_simcore pins agreement to <= 1e-9 relative flow time. *)

module Heap = Rr_util.Heap

type kind = Srpt | Sjf | Fcfs | Hdf of { alpha : float }

let key_spec = function
  | Srpt -> Policy_class.Key_remaining
  | Sjf -> Policy_class.Key_size
  | Fcfs -> Policy_class.Key_arrival
  | Hdf { alpha } -> Policy_class.Key_density { alpha }

let kind_of_key = function
  | Policy_class.Key_remaining -> Srpt
  | Policy_class.Key_size -> Sjf
  | Policy_class.Key_arrival -> Fcfs
  | Policy_class.Key_density { alpha } -> Hdf { alpha }

let key_of_view kind (v : Policy.view) =
  match kind with
  | Srpt -> Policy.remaining_exn v
  | Sjf -> Policy.size_exn v
  | Fcfs -> v.Policy.arrival
  | Hdf { alpha } ->
      let size = Policy.size_exn v in
      -.((size ** alpha) /. size)

(* Shared with Rr_policies.Setf.same_group: attained-service levels within
   this (relative) tolerance count as one sharing group. *)
let[@inline] same_attained a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.max a b)

(* ------------------------------------------------------------------ *)
(* Fixed-priority slots (SRPT / SJF / FCFS / HDF)                      *)
(* ------------------------------------------------------------------ *)

(* One running job; the <= m slots are scanned linearly, so no heap
   discipline is needed where preemption decisions are made.  The floats
   sit in an all-float (flat) record: a slot's per-event [remaining]
   write, and the resume state copied in when a job is seated, are plain
   unboxed stores — in a record that also held [id] each would box a
   fresh float. *)
type slot_fl = { mutable arrival : float; mutable size : float; mutable remaining : float }

type slot = { mutable id : int; f : slot_fl }

type slots = {
  kind : kind;
  key : Policy_class.key;  (* [key_spec kind], built once *)
  machines : int;
  speed : float;
  clk : Clock.t;
  waiting : Heap.Scalar3.t;  (* see [push_staged] *)
  stage : slot_fl;  (* the job [push_staged] files next *)
  running : slot array;  (* seated jobs, packed in [0, n_run) *)
  mutable n_run : int;
  born : Clock.log;
      (* newcomers of size within [Clock.threshold] that had to wait: the
         general loop retires each at the first event after its release,
         served or not, so they skip the heap and [settle] retires them
         there *)
}

let create ~clk ~scratch ~machines ~speed kind =
  {
    kind;
    key = key_spec kind;
    machines;
    speed;
    clk;
    waiting = Arena.scalar3_of scratch;
    stage = { arrival = 0.; size = 0.; remaining = 0. };
    running =
      Array.init machines (fun _ -> { id = -1; f = { arrival = 0.; size = 0.; remaining = 0. } });
    n_run = 0;
    born = Clock.log_create ();
  }

let alive s = s.n_run + Heap.Scalar3.length s.waiting + s.born.count

(* A job's priority key, through {!Policy_class.static_key} — the one
   expression per kind the mirror policies also use, so both sides order
   jobs bit-identically — on the floats of a flat record: a seated slot
   (live: SRPT's key decreases as remaining does) or the staged job.
   The fields are read where the key is computed, so none is boxed to
   make the call. *)
let[@inline] flat_key s (f : slot_fl) =
  Policy_class.static_key s.key ~arrival:f.arrival ~size:f.size ~remaining:f.remaining

(* Waiting-heap field layout, uniform across kinds (Scalar3): the
   priority key plus the full resume state

     key = flat_key, aux1 = arrival, aux2 = size, aux3 = remaining

   so adding a kind is a new [Policy_class.static_key] arm, not a new
   layout.  A waiting job is never served, so its key is frozen while in
   the heap — the heap order stays valid without any decrease-key, even
   for SRPT whose key is genuinely "remaining".  The job's floats travel
   into the heap from the flat [f] (a slot, or the staged newcomer),
   never as boxed arguments. *)
let push_staged s (f : slot_fl) id =
  Heap.Scalar3.add s.waiting ~key:(flat_key s f) ~aux1:f.arrival ~aux2:f.size ~aux3:f.remaining
    id

(* Job [id], in [f] (the staged newcomer or a preempted slot), waits:
   into the heap, or, when its remaining work is within the completion
   threshold — a newcomer that small, or one seated at its own arrival
   and preempted at once — among the born-complete. *)
let wait s (f : slot_fl) id =
  if f.remaining <= Clock.threshold f.size then Clock.hold s.born ~id ~arrival:f.arrival
  else push_staged s f id

(* Seat the job [admit] was handed through the clock in [s], fresh. *)
let seat_new (s : slot) (clk : Clock.t) id =
  s.id <- id;
  s.f.arrival <- clk.arrival;
  s.f.size <- clk.size;
  s.f.remaining <- clk.size

(* Admission: a free machine always goes to the newcomer (the waiting
   heap is empty whenever a machine is idle — [settle] refills eagerly).
   Otherwise the newcomer preempts the weakest running job iff it beats
   it under (key, id) — one comparison against an O(m) scan, which
   reproduces the general loop's full re-sort because at most one job
   changes per arrival (the tournament property).  At m = 1 the scan is
   the one slot. *)
let[@inline] admit s id =
  let clk = s.clk in
  if s.n_run < s.machines then begin
    seat_new s.running.(s.n_run) clk id;
    s.n_run <- s.n_run + 1
  end
  else begin
    let w = ref 0 in
    for i = 1 to s.machines - 1 do
      let a = s.running.(i) and b = s.running.(!w) in
      let ka = flat_key s a.f and kb = flat_key s b.f in
      if ka > kb || (ka = kb && a.id > b.id) then w := i
    done;
    let sl = s.running.(!w) in
    let st = s.stage in
    st.arrival <- clk.arrival;
    st.size <- clk.size;
    st.remaining <- clk.size;
    let kj = flat_key s st in
    let ks = flat_key s sl.f in
    if kj < ks || (kj = ks && id < sl.id) then begin
      wait s sl.f sl.id;
      seat_new sl clk id
    end
    else wait s st id
  end

(* Earliest completion among the running slots; same arithmetic as the
   general loop's [now + remaining / (rate * speed)] at rate 1.

   The primitives below take a single-slot path at m = 1 — the
   configuration every ratio run hits for its baselines — where the slot
   never moves and the scans collapse to field accesses; the arithmetic
   is the same. *)
let[@inline] next_internal s =
  let now = s.clk.now in
  if s.machines = 1 then
    s.clk.t_next <-
      (if s.n_run = 0 then Float.infinity else now +. (s.running.(0).f.remaining /. s.speed))
  else begin
    let t = ref Float.infinity in
    for i = 0 to s.n_run - 1 do
      let c = now +. (s.running.(i).f.remaining /. s.speed) in
      if c < !t then t := c
    done;
    s.clk.t_next <- !t
  end

let[@inline] advance s =
  let adv = s.speed *. s.clk.dt in
  for i = 0 to s.n_run - 1 do
    let f = s.running.(i).f in
    f.remaining <- f.remaining -. adv
  done

let seat_waiting (sl : slot) waiting =
  sl.f.arrival <- Heap.Scalar3.min_aux1_exn waiting;
  sl.f.size <- Heap.Scalar3.min_aux2_exn waiting;
  sl.f.remaining <- Heap.Scalar3.min_aux3_exn waiting;
  sl.id <- Heap.Scalar3.pop_exn waiting

(* Retire finished slots (swap-remove, iterating downwards), then let
   freed machines pull the best waiting jobs before the driver admits
   new arrivals — at time [t] the running set must be the top-m of the
   jobs released strictly before any job arriving at [t] (completion
   beats arrival, as in the general loop). *)
let[@inline] settle s out =
  let now = s.clk.now in
  if s.born.count > 0 then Clock.release s.born out ~now;
  if s.machines = 1 then begin
    let sl = s.running.(0) in
    if s.n_run = 1 && sl.f.remaining <= Clock.threshold sl.f.size then begin
      Clock.retire out ~id:sl.id ~arrival:sl.f.arrival ~flow:(now -. sl.f.arrival);
      if Heap.Scalar3.is_empty s.waiting then s.n_run <- 0 else seat_waiting sl s.waiting
    end
  end
  else begin
    for i = s.n_run - 1 downto 0 do
      let sl = s.running.(i) in
      if sl.f.remaining <= Clock.threshold sl.f.size then begin
        Clock.retire out ~id:sl.id ~arrival:sl.f.arrival ~flow:(now -. sl.f.arrival);
        s.n_run <- s.n_run - 1;
        if i < s.n_run then begin
          s.running.(i) <- s.running.(s.n_run);
          s.running.(s.n_run) <- sl
        end
      end
    done;
    while s.n_run < s.machines && not (Heap.Scalar3.is_empty s.waiting) do
      seat_waiting s.running.(s.n_run) s.waiting;
      s.n_run <- s.n_run + 1
    done
  end

let iter_alive s f =
  for i = 0 to s.n_run - 1 do
    let sl = s.running.(i) in
    f sl.id sl.f.arrival 1.
  done;
  Heap.Scalar3.iter (fun _key id arrival _size _remaining -> f id arrival 0.) s.waiting;
  for i = 0 to s.born.count - 1 do
    f s.born.ids.(i) s.born.arrivals.(i) 0.
  done

(* ------------------------------------------------------------------ *)
(* SETF cascade                                                        *)
(* ------------------------------------------------------------------ *)

(* Alive jobs partition into groups of equal attained service, kept as a
   doubly-linked list sorted by level (ascending — least attained first).
   Water-filling gives rate 1 to a prefix of groups, a fractional rate to
   at most one marginal group, and rate 0 to the rest, so the advancing
   region is always a prefix of <= m+1 nodes: recomputing rates, finding
   the earliest completion, and finding the earliest catch-up are all
   O(m) walks from the front, never O(groups).  A group's level is stored
   lazily as [(level, t_upd, grate)] and materialized when the prefix
   advances; frozen groups carry exact levels by construction.  Catch-ups
   merge the faster group into its neighbour small-into-large, so each
   job changes heaps O(log n) times over a run.

   The per-group member heap is keyed by size (ties by id): equal
   attained service means the least size is also the least remaining, so
   within-group completions cascade in heap order exactly like the
   equal-share kernel's deadline cascade.

   The lazy level triple is an all-float (flat) record, so materializing
   it never boxes; the walks below are top-level loops over the list, not
   closures rebuilt per event.  The links point at a sentinel group
   ([nil]) rather than holding options, and a group that empties or is
   merged away goes, member heap and all, onto a free list threaded
   through [next]: opening a group for a newcomer — which most arrivals
   do — allocates nothing once the list has warmed up. *)

type glevel = {
  mutable level : float;  (* attained service per member at [t_upd] *)
  mutable t_upd : float;
  mutable grate : float;  (* policy rate in [0, 1]; advance = grate * speed *)
}

type group = {
  lv : glevel;
  mutable members : Heap.Scalar2.t;  (* key = size, val = id, aux1 = arrival *)
  mutable prev : group;  (* [nil] at either end *)
  mutable next : group;
}

type setf = {
  s_machines : int;
  s_speed : float;
  s_clk : Clock.t;
  scratch : Arena.t option;
  nil : group;  (* the sentinel: no members, linked to itself *)
  mutable first : group;
  mutable free : group;  (* recycled groups, chained through [next] *)
  mutable s_alive : int;
}

let setf_create ~clk ~scratch ~machines ~speed =
  let rec nil =
    { lv = { level = 0.; t_upd = 0.; grate = 0. }; members = Heap.Scalar2.create (); prev = nil;
      next = nil }
  in
  {
    s_machines = machines;
    s_speed = speed;
    s_clk = clk;
    scratch;
    nil;
    first = nil;
    free = nil;
    s_alive = 0;
  }

let setf_alive st = st.s_alive

(* A group at level 0 from [now], with no members, from the free list
   when it has one.  In a closed run the member heaps of the groups built
   here come from the arena and keep their capacity across runs. *)
let open_group st =
  let g =
    if st.free != st.nil then begin
      let g = st.free in
      st.free <- g.next;
      g
    end
    else
      {
        lv = { level = 0.; t_upd = 0.; grate = 0. };
        members = Arena.scalar2_of st.scratch;
        prev = st.nil;
        next = st.nil;
      }
  in
  g.lv.level <- 0.;
  g.lv.t_upd <- st.s_clk.now;
  g.lv.grate <- 0.;
  g.prev <- st.nil;
  g.next <- st.nil;
  g

let recycle st (g : group) =
  Heap.Scalar2.clear g.members;
  g.prev <- st.nil;
  g.next <- st.free;
  st.free <- g

let[@inline] level_at st (g : group) =
  g.lv.level +. (g.lv.grate *. st.s_speed *. (st.s_clk.now -. g.lv.t_upd))

let unlink st (g : group) =
  if g.prev == st.nil then st.first <- g.next else g.prev.next <- g.next;
  if g.next != st.nil then g.next.prev <- g.prev

(* Water-filling from the front, identical arithmetic to the general
   SETF policy: rate min(1, left/count) per group, front first.  [left]
   stays an exact small integer while groups saturate, so the marginal
   group's fractional rate is the same float the policy computes; after
   the marginal group the remaining capacity is exactly zero (the
   policy's own subtraction may leave an ulp of dust there, feeding
   rates ~1e-18 to frozen groups — a difference absorbed by the 1e-9
   differential tolerance).  Rates are non-increasing along the list,
   so once a previously-frozen group is reached with nothing left, the
   walk can stop.  Rates reflect the structure the last event left. *)
let setf_refresh st =
  let now = st.s_clk.now in
  let g = ref st.first in
  let left = ref (Float.of_int st.s_machines) in
  let go = ref true in
  while !go && !g != st.nil do
    let g' = !g in
    g'.lv.level <- level_at st g';
    g'.lv.t_upd <- now;
    if !left > 0. then begin
      let cnt = Float.of_int (Heap.Scalar2.length g'.members) in
      let r = Float.min 1. (!left /. cnt) in
      g'.lv.grate <- r;
      left := if r < 1. then 0. else !left -. cnt;
      g := g'.next
    end
    else if g'.lv.grate > 0. then begin
      g'.lv.grate <- 0.;
      left := 0.;
      g := g'.next
    end
    else go := false
  done

(* A newcomer has attained 0: it joins the front group when that group's
   level is still within the sharing tolerance of 0 (the same
   [same_group] predicate the policy applies), otherwise it opens a new
   front group at level 0.  Its rate is set by the next refresh. *)
let setf_admit st id =
  let clk = st.s_clk in
  let front = st.first in
  if front != st.nil && same_attained 0. (level_at st front) then
    Heap.Scalar2.add front.members ~key:clk.size ~aux1:clk.arrival ~aux2:0. id
  else begin
    let g = open_group st in
    Heap.Scalar2.add g.members ~key:clk.size ~aux1:clk.arrival ~aux2:0. id;
    g.next <- front;
    if front != st.nil then front.prev <- g;
    st.first <- g
  end;
  st.s_alive <- st.s_alive + 1

(* Earliest within-group completion or earliest adjacent catch-up (both
   only in the advancing prefix; the sentinel's rate is 0). *)
let setf_next_internal st =
  let now = st.s_clk.now in
  let t_next = ref Float.infinity in
  let g = ref st.first in
  while !g.lv.grate > 0. do
    let g' = !g in
    let c =
      now
      +. ((Heap.Scalar2.min_key_exn g'.members -. g'.lv.level) /. (g'.lv.grate *. st.s_speed))
    in
    if c < !t_next then t_next := c;
    let h = g'.next in
    if h != st.nil then begin
      let closing = (g'.lv.grate -. h.lv.grate) *. st.s_speed in
      let gap = level_at st h -. g'.lv.level in
      if closing > 0. && gap > 0. then begin
        let t = now +. (gap /. closing) in
        if t < !t_next then t_next := t
      end
    end;
    g := h
  done;
  st.s_clk.t_next <- !t_next

(* Advance the prefix by [dt], materializing levels at [t_next]. *)
let setf_advance st =
  let clk = st.s_clk in
  let g = ref st.first in
  while !g.lv.grate > 0. do
    let g' = !g in
    g'.lv.level <- g'.lv.level +. (g'.lv.grate *. st.s_speed *. clk.dt);
    g'.lv.t_upd <- clk.t_next;
    g := g'.next
  done

(* Retire every member whose residual [size - level] crossed the shared
   completion threshold — the cascade pops in (size, id) order. *)
let setf_retire st out =
  let now = st.s_clk.now in
  let g = ref st.first in
  while !g.lv.grate > 0. do
    let g' = !g in
    let nxt = g'.next in
    while
      (not (Heap.Scalar2.is_empty g'.members))
      && Heap.Scalar2.min_key_exn g'.members -. g'.lv.level
         <= Clock.threshold (Heap.Scalar2.min_key_exn g'.members)
    do
      let arrival = Heap.Scalar2.min_aux1_exn g'.members in
      let id = Heap.Scalar2.pop_exn g'.members in
      Clock.retire out ~id ~arrival ~flow:(now -. arrival);
      st.s_alive <- st.s_alive - 1
    done;
    if Heap.Scalar2.is_empty g'.members then begin
      unlink st g';
      recycle st g'
    end;
    g := nxt
  done

(* Catch-ups: an advancing group whose level reached its neighbour's
   (within the sharing tolerance) merges into it, small heap into large;
   the merged node keeps the neighbour region's level and is re-examined
   against its new neighbour.  Only adjacent pairs in the advancing
   prefix can meet. *)
let setf_merge st =
  let g = ref st.first in
  while !g.lv.grate > 0. do
    let g' = !g in
    let h = g'.next in
    if h != st.nil && same_attained g'.lv.level (level_at st h) then begin
      let lvl = level_at st h in
      let g_smaller = Heap.Scalar2.length g'.members <= Heap.Scalar2.length h.members in
      let src = if g_smaller then g' else h in
      let keep = if g_smaller then h else g' in
      Heap.Scalar2.add_all keep.members src.members;
      keep.lv.level <- lvl;
      keep.lv.t_upd <- st.s_clk.now;
      keep.lv.grate <- Float.max g'.lv.grate h.lv.grate;
      unlink st src;
      recycle st src;
      (* [keep] is the live node of the pair; loop on it. *)
      g := keep
    end
    else g := h
  done

let setf_settle st out =
  setf_retire st out;
  setf_merge st

let setf_iter_alive st f =
  let g = ref st.first in
  while !g != st.nil do
    let g' = !g in
    Heap.Scalar2.iter (fun _size id arrival _aux2 -> f id arrival g'.lv.grate) g'.members;
    g := g'.next
  done
