(* Priority-index scheduling kernel: closed-form engines for the
   fixed-priority comparator policies (SRPT / SJF / FCFS) and a
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
   advance [remaining -. (speed *. dt)] since [1. *. x = x] exactly, the
   shared completion threshold, and the same completion-beats-arrival
   tie rule), so on the same event sequence the engines produce the same
   floats; the differential suite in test_simcore pins agreement to
   <= 1e-9 relative flow time. *)

module Heap = Rr_util.Heap
module Vec = Rr_util.Vec
module Source = Simulator.Source

type kind = Srpt | Sjf | Fcfs | Hdf of { alpha : float }

let kind_name = function Srpt -> "srpt" | Sjf -> "sjf" | Fcfs -> "fcfs" | Hdf _ -> "hdf"

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

(* One expression per kind, shared with the mirror policies through
   {!Policy_class.static_key} so both sides order jobs bit-identically. *)
let job_key kind ~arrival ~size ~remaining =
  Policy_class.static_key (key_spec kind) ~arrival ~size ~remaining

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

let no_sink : Simulator.sink = fun ~id:_ ~arrival:_ ~flow:_ -> ()

(* ------------------------------------------------------------------ *)
(* Fixed-priority core (SRPT / SJF / FCFS)                             *)
(* ------------------------------------------------------------------ *)

(* One running job; the <= m slots are scanned linearly, so no heap
   discipline is needed where preemption decisions are made.  The floats
   sit in an all-float (flat) record: a slot's per-event [remaining]
   write, and the resume state copied in when a job is seated, are plain
   unboxed stores — in a record that also held [id] each would box a
   fresh float. *)
type slot_fl = { mutable arrival : float; mutable size : float; mutable remaining : float }

type slot = { mutable id : int; f : slot_fl }

let new_slot () = { id = -1; f = { arrival = 0.; size = 0.; remaining = 0. } }

(* The closed drivers' clock: the instant, the next event, the buffered
   next arrival (+inf once drained) and the makespan.  All-float, hence
   flat, so the per-event updates never box — as [float ref]s captured by
   the drivers' closures they would, once per write. *)
type clock = {
  mutable now : float;
  mutable t_next : float;
  mutable next_arr : float;
  mutable makespan : float;
}

let new_clock () = { now = 0.; t_next = 0.; next_arr = Float.infinity; makespan = 0. }

(* Start the clock at the first arrival and buffer it. *)
let start_clock clk (source : Source.t) =
  clk.now <- (if Source.has_more source then Source.head_arrival source else 0.);
  clk.next_arr <- Source.next_arrival source

(* Same float as Simulator.completion_threshold, inlined into the hot
   loop (the cross-module call is measurable at ~100 ns/event). *)
let[@inline] threshold size = 1e-9 *. (1. +. size)

(* Same expression as [job_key], on slot fields (running jobs' keys are
   live: SRPT's decreases as remaining does). *)
let[@inline] slot_key kind (s : slot) =
  match kind with
  | Srpt -> s.f.remaining
  | Sjf -> s.f.size
  | Fcfs -> s.f.arrival
  | Hdf { alpha } -> -.((s.f.size ** alpha) /. s.f.size)

(* Waiting-heap field layout, uniform across kinds (Scalar3): the
   priority key plus the full resume state

     key = job_key kind, aux1 = arrival, aux2 = size, aux3 = remaining

   so adding a kind is a new [job_key] arm, not a new layout.  A waiting
   job is never served, so its key is frozen while in the heap — the
   heap order stays valid without any decrease-key, even for SRPT whose
   key is genuinely "remaining". *)
let[@inline] push_waiting waiting kind ~id ~arrival ~size ~remaining =
  Heap.Scalar3.add waiting
    ~key:(job_key kind ~arrival ~size ~remaining)
    ~aux1:arrival ~aux2:size ~aux3:remaining id

let push_slot waiting kind (s : slot) =
  push_waiting waiting kind ~id:s.id ~arrival:s.f.arrival ~size:s.f.size
    ~remaining:s.f.remaining

(* Seat the source's buffered job in [s] (its resume state is fresh). *)
let seat_head (s : slot) (source : Source.t) =
  s.id <- Source.head_id source;
  s.f.arrival <- Source.head_arrival source;
  s.f.size <- Source.head_size source;
  s.f.remaining <- s.f.size

(* Seat the best waiting job in [s], popping it. *)
let seat_waiting (s : slot) waiting =
  s.f.arrival <- Heap.Scalar3.min_aux1_exn waiting;
  s.f.size <- Heap.Scalar3.min_aux2_exn waiting;
  s.f.remaining <- Heap.Scalar3.min_aux3_exn waiting;
  s.id <- Heap.Scalar3.pop_exn waiting

(* Report [id]'s completion at [clk.now]: exact instant into the
   materialized entry point's array (when it has one), flow to the sink. *)
let[@inline] report clk ~completions ~(sink : Simulator.sink) ~id ~arrival =
  if Array.length completions > 0 then completions.(id) <- clk.now;
  sink ~id ~arrival ~flow:(clk.now -. arrival);
  clk.makespan <- clk.now

let index_core ~record_trace ~speed ~max_events ~machines ~kind ~(source : Source.t)
    ~(completions : float array) ~(sink : Simulator.sink) =
  if machines < 1 then invalid_arg "Index_engine.run: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Index_engine.run: speed must be finite and positive";
  let scratch = Arena.borrow () in
  Fun.protect ~finally:(fun () -> Arena.release scratch) @@ fun () ->
  let waiting = Arena.scalar3_of scratch in
  let clk = new_clock () in
  let running = Array.init machines (fun _ -> new_slot ()) in
  let n_run = ref 0 in
  let completed = ref 0 in
  let max_alive = ref 0 in
  let events = ref 0 in
  let trace_arena : Trace.segment Vec.t = Arena.segments_of scratch in
  let push_trace ~t0 ~t1 =
    let n_alive = !n_run + Heap.Scalar3.length waiting in
    let entries = Array.make n_alive { Trace.job = -1; arrival = 0.; rate = 0. } in
    for i = 0 to !n_run - 1 do
      let s = running.(i) in
      entries.(i) <- { Trace.job = s.id; arrival = s.f.arrival; rate = 1. }
    done;
    let next = ref !n_run in
    Heap.Scalar3.iter
      (fun _key id arrival _size _remaining ->
        entries.(!next) <- { Trace.job = id; arrival; rate = 0. };
        incr next)
      waiting;
    Vec.push trace_arena { Trace.t0; t1; alive = entries }
  in
  let note_alive () =
    let alive = !n_run + Heap.Scalar3.length waiting in
    if alive > !max_alive then max_alive := alive
  in
  (* Admission of the source's buffered job: a free machine always goes
     to the newcomer (the waiting heap is empty whenever a machine is
     idle — promotion below refills eagerly).  Otherwise the newcomer
     preempts the weakest running job iff it beats it under (key, id) —
     one comparison against an O(m) scan, which reproduces the general
     loop's full re-sort because at most one job changes per arrival (the
     tournament property).  At m = 1 the scan is the one slot. *)
  let admit_head () =
    if !n_run < machines then begin
      seat_head running.(!n_run) source;
      incr n_run
    end
    else begin
      let w = ref 0 in
      for i = 1 to machines - 1 do
        let a = running.(i) and b = running.(!w) in
        let ka = slot_key kind a and kb = slot_key kind b in
        if ka > kb || (ka = kb && a.id > b.id) then w := i
      done;
      let s = running.(!w) in
      let id = Source.head_id source in
      let arrival = Source.head_arrival source and size = Source.head_size source in
      let kj = job_key kind ~arrival ~size ~remaining:size in
      let ks = slot_key kind s in
      if kj < ks || (kj = ks && id < s.id) then begin
        push_slot waiting kind s;
        seat_head s source
      end
      else push_waiting waiting kind ~id ~arrival ~size ~remaining:size
    end;
    note_alive ()
  in
  let admit_upto () =
    while clk.next_arr <= clk.now do
      admit_head ();
      Source.advance source;
      clk.next_arr <- Source.next_arrival source
    done
  in
  start_clock clk source;
  admit_upto ();
  if machines = 1 then begin
    (* Single-machine specialization — the configuration every ratio run
       hits for its baselines.  The running set is one slot that never
       moves (retiring at m = 1 cannot swap), so the generic loop's
       per-event array scans collapse to direct field accesses; the event
       semantics and arithmetic are identical to the generic path below. *)
    let s = running.(0) in
    while !n_run > 0 || Source.has_more source do
      incr events;
      if !events > max_events then
        raise (Simulator.Event_limit_exceeded { limit = max_events; now = clk.now });
      if !n_run = 0 then begin
        clk.now <- clk.next_arr;
        admit_upto ()
      end
      else begin
        let c = clk.now +. (s.f.remaining /. speed) in
        clk.t_next <- (if clk.next_arr < c then clk.next_arr else c);
        let dt = clk.t_next -. clk.now in
        if record_trace then push_trace ~t0:clk.now ~t1:clk.t_next;
        s.f.remaining <- s.f.remaining -. (speed *. dt);
        clk.now <- clk.t_next;
        if s.f.remaining <= threshold s.f.size then begin
          report clk ~completions ~sink ~id:s.id ~arrival:s.f.arrival;
          incr completed;
          if Heap.Scalar3.is_empty waiting then n_run := 0 else seat_waiting s waiting
        end;
        admit_upto ()
      end
    done
  end
  else begin
    while !n_run > 0 || Source.has_more source do
      incr events;
      if !events > max_events then
        raise (Simulator.Event_limit_exceeded { limit = max_events; now = clk.now });
      if !n_run = 0 then begin
        clk.now <- clk.next_arr;
        admit_upto ()
      end
      else begin
        (* Earliest completion among the running slots; same arithmetic
           as the general loop's [now + remaining / (rate * speed)] at
           rate 1. *)
        let t_next = ref Float.infinity in
        for i = 0 to !n_run - 1 do
          let c = clk.now +. (running.(i).f.remaining /. speed) in
          if c < !t_next then t_next := c
        done;
        if clk.next_arr < !t_next then t_next := clk.next_arr;
        clk.t_next <- !t_next;
        let dt = clk.t_next -. clk.now in
        assert (dt > 0.);
        if record_trace then push_trace ~t0:clk.now ~t1:clk.t_next;
        for i = 0 to !n_run - 1 do
          let f = running.(i).f in
          f.remaining <- f.remaining -. (speed *. dt)
        done;
        clk.now <- clk.t_next;
        (* Retire finished slots (swap-remove, iterating downwards). *)
        for i = !n_run - 1 downto 0 do
          let s = running.(i) in
          if s.f.remaining <= threshold s.f.size then begin
            report clk ~completions ~sink ~id:s.id ~arrival:s.f.arrival;
            incr completed;
            decr n_run;
            if i < !n_run then begin
              running.(i) <- running.(!n_run);
              running.(!n_run) <- s
            end
          end
        done;
        (* Freed machines pull the best waiting jobs before new arrivals
           are admitted — at time [t] the running set must be the top-m
           of the jobs released strictly before any job arriving at [t]
           (completion beats arrival, as in the general loop). *)
        while !n_run < machines && not (Heap.Scalar3.is_empty waiting) do
          seat_waiting running.(!n_run) waiting;
          incr n_run
        done;
        admit_upto ()
      end
    done
  end;
  let trace = Vec.to_list trace_arena in
  ( {
      Simulator.n = !completed;
      events = !events;
      machines;
      speed;
      makespan = clk.makespan;
      max_alive = !max_alive;
    },
    trace )

let run ?(record_trace = false) ?(speed = 1.) ?(max_events = 10_000_000) ?(sink = no_sink)
    ~machines ~kind jobs =
  let n = Simulator.validate_jobs jobs in
  let jobs_arr = Simulator.jobs_by_id jobs n in
  let order = Simulator.release_order jobs n in
  let completions = Array.make n Float.nan in
  let summary, trace =
    index_core ~record_trace ~speed ~max_events ~machines ~kind
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
    index_core ~record_trace:false ~speed ~max_events ~machines ~kind
      ~source:(Source.of_raw fill) ~completions:[||] ~sink
  in
  summary

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
   equal-share engine's deadline cascade.

   The lazy level triple is an all-float (flat) record, so materializing
   it never boxes; the walks below are top-level loops over the list, not
   closures rebuilt per event. *)

type glevel = {
  mutable level : float;  (* attained service per member at [t_upd] *)
  mutable t_upd : float;
  mutable grate : float;  (* policy rate in [0, 1]; advance = grate * speed *)
}

type group = {
  lv : glevel;
  members : Heap.Scalar2.t;  (* key = size, val = id, aux1 = arrival *)
  mutable prev : group option;
  mutable next : group option;
}

type setf = {
  s_machines : int;
  s_speed : float;
  clk : clock;
  scratch : Arena.t option;
  mutable first : group option;
  (* Group member heaps cycle through a free list: a merged-away or
     emptied group donates its (cleared) heap to the next group opened,
     so in steady state opening a group costs a list cons, not a heap.
     The first few heaps come from the arena and keep their capacity
     across runs. *)
  mutable heap_pool : Heap.Scalar2.t list;
  mutable alive : int;
  mutable completed : int;
  mutable max_alive : int;
  completions : float array;
  sink : Simulator.sink;
}

let take_members st =
  match st.heap_pool with
  | h :: tl ->
      st.heap_pool <- tl;
      h
  | [] -> Arena.scalar2_of st.scratch

let recycle_members st (h : Heap.Scalar2.t) =
  Heap.Scalar2.clear h;
  st.heap_pool <- h :: st.heap_pool

let[@inline] level_at st (g : group) =
  g.lv.level +. (g.lv.grate *. st.s_speed *. (st.clk.now -. g.lv.t_upd))

let unlink st (g : group) =
  (match g.prev with None -> st.first <- g.next | Some p -> p.next <- g.next);
  match g.next with None -> () | Some nx -> nx.prev <- g.prev

(* Water-filling from the front, identical arithmetic to the general
   SETF policy: rate min(1, left/count) per group, front first.  [left]
   stays an exact small integer while groups saturate, so the marginal
   group's fractional rate is the same float the policy computes; after
   the marginal group the remaining capacity is exactly zero (the
   policy's own subtraction may leave an ulp of dust there, feeding
   rates ~1e-18 to frozen groups — a difference absorbed by the 1e-9
   differential tolerance).  Rates are non-increasing along the list,
   so once a previously-frozen group is reached with nothing left, the
   walk can stop. *)
let refill st =
  let now = st.clk.now in
  let cur = ref st.first in
  let left = ref (Float.of_int st.s_machines) in
  let go = ref true in
  while !go do
    match !cur with
    | None -> go := false
    | Some g ->
        g.lv.level <- level_at st g;
        g.lv.t_upd <- now;
        if !left > 0. then begin
          let cnt = Float.of_int (Heap.Scalar2.length g.members) in
          let r = Float.min 1. (!left /. cnt) in
          g.lv.grate <- r;
          left := if r < 1. then 0. else !left -. cnt;
          cur := g.next
        end
        else if g.lv.grate > 0. then begin
          g.lv.grate <- 0.;
          left := 0.;
          cur := g.next
        end
        else go := false
  done

(* A newcomer has attained 0: it joins the front group when that group's
   level is still within the sharing tolerance of 0 (the same
   [same_group] predicate the policy applies), otherwise it opens a new
   front group at level 0.  Its rate is set by the next [refill]. *)
let setf_admit st ~id ~arrival ~size =
  let joined =
    match st.first with
    | Some g when same_attained 0. (level_at st g) ->
        Heap.Scalar2.add g.members ~key:size ~aux1:arrival ~aux2:0. id;
        true
    | _ -> false
  in
  if not joined then begin
    let members = take_members st in
    Heap.Scalar2.add members ~key:size ~aux1:arrival ~aux2:0. id;
    let g =
      {
        lv = { level = 0.; t_upd = st.clk.now; grate = 0. };
        members;
        prev = None;
        next = st.first;
      }
    in
    (match st.first with None -> () | Some old -> old.prev <- Some g);
    st.first <- Some g
  end;
  st.alive <- st.alive + 1;
  if st.alive > st.max_alive then st.max_alive <- st.alive

let setf_admit_upto st (source : Source.t) =
  let clk = st.clk in
  while clk.next_arr <= clk.now do
    setf_admit st ~id:(Source.head_id source) ~arrival:(Source.head_arrival source)
      ~size:(Source.head_size source);
    Source.advance source;
    clk.next_arr <- Source.next_arrival source
  done

(* Next event into [clk.t_next]: earliest within-group completion or
   earliest adjacent catch-up (both only in the advancing prefix); the
   caller folds in the next arrival. *)
let setf_scan st =
  let now = st.clk.now in
  let t_next = ref Float.infinity in
  let cur = ref st.first in
  let go = ref true in
  while !go do
    match !cur with
    | Some g when g.lv.grate > 0. ->
        let c =
          now
          +. ((Heap.Scalar2.min_key_exn g.members -. g.lv.level) /. (g.lv.grate *. st.s_speed))
        in
        if c < !t_next then t_next := c;
        (match g.next with
        | Some h ->
            let closing = (g.lv.grate -. h.lv.grate) *. st.s_speed in
            let gap = level_at st h -. g.lv.level in
            if closing > 0. && gap > 0. then begin
              let t = now +. (gap /. closing) in
              if t < !t_next then t_next := t
            end
        | None -> ());
        cur := g.next
    | _ -> go := false
  done;
  st.clk.t_next <- !t_next

(* Advance the prefix from [clk.now] to [clk.t_next], materializing
   levels there. *)
let setf_advance st =
  let dt = st.clk.t_next -. st.clk.now in
  let cur = ref st.first in
  let go = ref true in
  while !go do
    match !cur with
    | Some g when g.lv.grate > 0. ->
        g.lv.level <- g.lv.level +. (g.lv.grate *. st.s_speed *. dt);
        g.lv.t_upd <- st.clk.t_next;
        cur := g.next
    | _ -> go := false
  done

(* Retire every member whose residual [size - level] crossed the shared
   completion threshold — the cascade pops in (size, id) order. *)
let setf_retire st =
  let clk = st.clk in
  let cur = ref st.first in
  let go = ref true in
  while !go do
    match !cur with
    | Some g when g.lv.grate > 0. ->
        let nxt = g.next in
        while
          (not (Heap.Scalar2.is_empty g.members))
          && Heap.Scalar2.min_key_exn g.members -. g.lv.level
             <= Simulator.completion_threshold (Heap.Scalar2.min_key_exn g.members)
        do
          let arrival = Heap.Scalar2.min_aux1_exn g.members in
          let id = Heap.Scalar2.pop_exn g.members in
          report clk ~completions:st.completions ~sink:st.sink ~id ~arrival;
          st.completed <- st.completed + 1;
          st.alive <- st.alive - 1
        done;
        if Heap.Scalar2.is_empty g.members then begin
          unlink st g;
          recycle_members st g.members
        end;
        cur := nxt
    | _ -> go := false
  done

(* Catch-ups: an advancing group whose level reached its neighbour's
   (within the sharing tolerance) merges into it, small heap into large;
   the merged node keeps the neighbour region's level and is re-examined
   against its new neighbour.  Only adjacent pairs in the advancing
   prefix can meet. *)
let setf_merge st =
  let cur = ref st.first in
  let go = ref true in
  while !go do
    match !cur with
    | Some g when g.lv.grate > 0. -> (
        match g.next with
        | Some h when same_attained g.lv.level (level_at st h) ->
            let lvl = level_at st h in
            let g_smaller = Heap.Scalar2.length g.members <= Heap.Scalar2.length h.members in
            let src = if g_smaller then g else h in
            let keep = if g_smaller then h else g in
            Heap.Scalar2.add_all keep.members src.members;
            recycle_members st src.members;
            keep.lv.level <- lvl;
            keep.lv.t_upd <- st.clk.now;
            keep.lv.grate <- Float.max g.lv.grate h.lv.grate;
            unlink st src;
            (* [keep] is the live node of the pair; loop on it without
               wrapping it in a fresh option. *)
            cur := if g_smaller then g.next else h.prev
        | _ -> cur := g.next)
    | _ -> go := false
  done

let setf_core ~record_trace ~speed ~max_events ~machines ~(source : Source.t)
    ~(completions : float array) ~(sink : Simulator.sink) =
  if machines < 1 then invalid_arg "Index_engine.run_setf: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Index_engine.run_setf: speed must be finite and positive";
  let scratch = Arena.borrow () in
  Fun.protect ~finally:(fun () -> Arena.release scratch) @@ fun () ->
  let st =
    {
      s_machines = machines;
      s_speed = speed;
      clk = new_clock ();
      scratch;
      first = None;
      heap_pool = [];
      alive = 0;
      completed = 0;
      max_alive = 0;
      completions;
      sink;
    }
  in
  let clk = st.clk in
  let trace_arena : Trace.segment Vec.t = Arena.segments_of scratch in
  let push_trace ~t0 ~t1 =
    let entries = Array.make st.alive { Trace.job = -1; arrival = 0.; rate = 0. } in
    let next = ref 0 in
    let rec go = function
      | None -> ()
      | Some (g : group) ->
          Heap.Scalar2.iter
            (fun _size id arrival _aux2 ->
              entries.(!next) <- { Trace.job = id; arrival; rate = g.lv.grate };
              incr next)
            g.members;
          go g.next
    in
    go st.first;
    Vec.push trace_arena { Trace.t0; t1; alive = entries }
  in
  let events = ref 0 in
  start_clock clk source;
  setf_admit_upto st source;
  while Option.is_some st.first || Source.has_more source do
    incr events;
    if !events > max_events then
      raise (Simulator.Event_limit_exceeded { limit = max_events; now = clk.now });
    if Option.is_none st.first then begin
      clk.now <- clk.next_arr;
      setf_admit_upto st source
    end
    else begin
      (* Rates reflect the structure left by the previous event. *)
      refill st;
      (* Completion/catch-up beats an arrival tie, as everywhere. *)
      setf_scan st;
      if clk.next_arr < clk.t_next then clk.t_next <- clk.next_arr;
      if not (Float.is_finite clk.t_next) then
        raise
          (Simulator.Invalid_allocation
             "alive jobs receive no service and no arrival or horizon is pending");
      assert (clk.t_next -. clk.now > 0.);
      if record_trace then push_trace ~t0:clk.now ~t1:clk.t_next;
      setf_advance st;
      clk.now <- clk.t_next;
      setf_retire st;
      setf_merge st;
      setf_admit_upto st source
    end
  done;
  let trace = Vec.to_list trace_arena in
  ( {
      Simulator.n = st.completed;
      events = !events;
      machines;
      speed;
      makespan = clk.makespan;
      max_alive = st.max_alive;
    },
    trace )

let run_setf ?(record_trace = false) ?(speed = 1.) ?(max_events = 10_000_000) ?(sink = no_sink)
    ~machines jobs =
  let n = Simulator.validate_jobs jobs in
  let jobs_arr = Simulator.jobs_by_id jobs n in
  let order = Simulator.release_order jobs n in
  let completions = Array.make n Float.nan in
  let summary, trace =
    setf_core ~record_trace ~speed ~max_events ~machines ~source:(Source.of_array order)
      ~completions ~sink
  in
  {
    Simulator.jobs = jobs_arr;
    completions;
    trace;
    machines;
    speed;
    events = summary.Simulator.events;
  }

let run_setf_stream ?(speed = 1.) ?(max_events = 10_000_000) ~machines ~sink fill =
  let summary, _trace =
    setf_core ~record_trace:false ~speed ~max_events ~machines ~source:(Source.of_raw fill)
      ~completions:[||] ~sink
  in
  summary
