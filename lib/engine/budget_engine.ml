(* Preemption-budget SRPT kernel ({!Policy_class.Preempt_budget}).  See
   budget_engine.mli.

   SRPT, except each job may be evicted from a machine at most [budget]
   times; an incumbent whose eviction count has reached the budget is
   immune and runs to completion.  The rule is history-dependent, so the
   kernel replays exactly the transitions the mirror policy makes, in
   the same order at every event:

     1. completed jobs leave their machines ([settle]),
     2. free machines are refilled from the *waiting* set, best
        (remaining, id) first — before any same-instant arrival is
        considered (completion beats arrival),
     3. fresh arrivals, in (arrival, id) order, take a free machine if
        any, else challenge the weakest evictable incumbent (max
        (remaining, id) among those under budget) and evict it — bumping
        its count — iff they beat it under (remaining, id).

   Waiting jobs never run, so their remaining work is frozen and the
   waiting heap needs no staleness handling: a job's entry is popped
   when it is seated and re-pushed (with its current remaining) when it
   is evicted.  Each event costs O(m + log alive). *)

module Heap = Rr_util.Heap
module Vec = Rr_util.Vec
module Source = Simulator.Source

(* A running slot's floats in an all-float (flat) record: the per-event
   [remaining] write and the resume state copied in when a job is seated
   are plain unboxed stores. *)
type slot_fl = { mutable arrival : float; mutable size : float; mutable remaining : float }

type slot = { mutable id : int; f : slot_fl }

(* The closed driver's clock: all-float, hence flat. *)
type clock = {
  mutable now : float;
  mutable dt : float;
  mutable t_next : float;
  mutable next_arr : float;
  mutable makespan : float;
}

type state = {
  budget : int;
  machines : int;
  speed : float;
  slots : slot array;  (* running jobs, packed in [0, n_run) *)
  mutable n_run : int;
  waiting : Heap.Scalar3.t;  (* key = remaining, aux = arrival, size, remaining *)
  (* Arrivals not yet processed by [refresh], in admission order: flat
     parallel buffers, [n_fresh] live entries.  [refresh] always drains
     them all, so they never need to wrap. *)
  mutable fresh_ids : int array;
  mutable fresh_arrivals : float array;
  mutable fresh_sizes : float array;
  mutable n_fresh : int;
  evictions : (int, int) Hashtbl.t;
  clk : clock;
  mutable alive : int;
}

(* The waiting heap may be caller-supplied ({!budget_core} borrows it
   from the per-domain arena); {!create} allocates a fresh one for
   long-lived states like {!Live}. *)
let create_in ~waiting ~machines ~speed ~budget =
  if machines < 1 then invalid_arg "Budget_engine.create: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Budget_engine.create: speed must be finite and positive";
  (match Policy_class.validate (Policy_class.Preempt_budget { budget }) with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Budget_engine.create: " ^ msg));
  {
    budget;
    machines;
    speed;
    slots =
      Array.init machines (fun _ -> { id = -1; f = { arrival = 0.; size = 0.; remaining = 0. } });
    n_run = 0;
    waiting;
    fresh_ids = [||];
    fresh_arrivals = [||];
    fresh_sizes = [||];
    n_fresh = 0;
    evictions = Hashtbl.create 64;
    clk =
      { now = 0.; dt = 0.; t_next = Float.infinity; next_arr = Float.infinity; makespan = 0. };
    alive = 0;
  }

let create ~machines ~speed ~budget =
  create_in ~waiting:(Heap.Scalar3.create ()) ~machines ~speed ~budget

let alive st = st.alive

let[@inline] threshold size = 1e-9 *. (1. +. size)

let admit st ~id ~arrival ~size =
  let cap = Array.length st.fresh_ids in
  if st.n_fresh = cap then begin
    let ncap = Int.max 8 (2 * cap) in
    let grow_f a = Array.append a (Array.make (ncap - cap) 0.) in
    st.fresh_ids <- Array.append st.fresh_ids (Array.make (ncap - cap) 0);
    st.fresh_arrivals <- grow_f st.fresh_arrivals;
    st.fresh_sizes <- grow_f st.fresh_sizes
  end;
  st.fresh_ids.(st.n_fresh) <- id;
  st.fresh_arrivals.(st.n_fresh) <- arrival;
  st.fresh_sizes.(st.n_fresh) <- size;
  st.n_fresh <- st.n_fresh + 1;
  st.alive <- st.alive + 1

let count st id = match Hashtbl.find st.evictions id with c -> c | exception Not_found -> 0

let[@inline] push_waiting st ~id ~arrival ~size ~remaining =
  Heap.Scalar3.add st.waiting ~key:remaining ~aux1:arrival ~aux2:size ~aux3:remaining id

let push_slot st (s : slot) =
  push_waiting st ~id:s.id ~arrival:s.f.arrival ~size:s.f.size ~remaining:s.f.remaining

let pop_into_free_slot st =
  let s = st.slots.(st.n_run) in
  s.f.arrival <- Heap.Scalar3.min_aux1_exn st.waiting;
  s.f.size <- Heap.Scalar3.min_aux2_exn st.waiting;
  s.f.remaining <- Heap.Scalar3.min_aux3_exn st.waiting;
  s.id <- Heap.Scalar3.pop_exn st.waiting;
  st.n_run <- st.n_run + 1

(* Seat buffered arrival [i] in slot [s], fresh. *)
let seat_fresh st (s : slot) i =
  s.id <- st.fresh_ids.(i);
  s.f.arrival <- st.fresh_arrivals.(i);
  s.f.size <- st.fresh_sizes.(i);
  s.f.remaining <- s.f.size

(* Mirror of one [allocate] call: refill from the waiting set, then
   process buffered arrivals in admission order.  The rule never reads
   the clock. *)
let refresh_now st =
  while st.n_run < st.machines && Heap.Scalar3.length st.waiting > 0 do
    pop_into_free_slot st
  done;
  for i = 0 to st.n_fresh - 1 do
    if st.n_run < st.machines then begin
      seat_fresh st st.slots.(st.n_run) i;
      st.n_run <- st.n_run + 1
    end
    else begin
      (* Weakest evictable incumbent under (remaining, id). *)
      let weak = ref (-1) in
      for k = 0 to st.n_run - 1 do
        let s = st.slots.(k) in
        if count st s.id < st.budget then
          match !weak with
          | -1 -> weak := k
          | w ->
              let sw = st.slots.(w) in
              if
                s.f.remaining > sw.f.remaining
                || (s.f.remaining = sw.f.remaining && s.id > sw.id)
              then weak := k
      done;
      let id = st.fresh_ids.(i) and size = st.fresh_sizes.(i) in
      let evict =
        match !weak with
        | -1 -> -1
        | w ->
            let sw = st.slots.(w) in
            if size < sw.f.remaining || (size = sw.f.remaining && id < sw.id) then w else -1
      in
      if evict < 0 then
        push_waiting st ~id ~arrival:st.fresh_arrivals.(i) ~size ~remaining:size
      else begin
        let sw = st.slots.(evict) in
        push_slot st sw;
        Hashtbl.replace st.evictions sw.id (count st sw.id + 1);
        seat_fresh st sw i
      end
    end
  done;
  st.n_fresh <- 0

(* The policy never emits a horizon: internal events are completions of
   the running set (rate 1 each), into [st.clk.t_next]. *)
let scan_next st =
  let now = st.clk.now in
  let t = ref Float.infinity in
  for i = 0 to st.n_run - 1 do
    let c = now +. (st.slots.(i).f.remaining /. st.speed) in
    if c < !t then t := c
  done;
  st.clk.t_next <- !t

let refresh st ~now:_ = refresh_now st

let next_internal st ~now =
  st.clk.now <- now;
  scan_next st;
  st.clk.t_next

let advance_dt st =
  let adv = st.speed *. st.clk.dt in
  for i = 0 to st.n_run - 1 do
    let f = st.slots.(i).f in
    f.remaining <- f.remaining -. adv
  done

let advance st ~dt =
  st.clk.dt <- dt;
  advance_dt st

let settle_now st (complete : Simulator.sink) =
  let now = st.clk.now in
  for i = st.n_run - 1 downto 0 do
    let s = st.slots.(i) in
    if s.f.remaining <= threshold s.f.size then begin
      complete ~id:s.id ~arrival:s.f.arrival ~flow:(now -. s.f.arrival);
      Hashtbl.remove st.evictions s.id;
      st.alive <- st.alive - 1;
      (* Pack the running prefix: swap the retiring slot with the last
         one.  Indices below [i] are untouched, so the downward sweep
         stays valid. *)
      let last = st.n_run - 1 in
      if i <> last then begin
        let l = st.slots.(last) in
        st.slots.(last) <- s;
        st.slots.(i) <- l
      end;
      st.n_run <- last
    end
  done

let settle st ~now ~complete =
  st.clk.now <- now;
  settle_now st complete

(* ------------------------------------------------------------------ *)
(* Closed event loop                                                   *)
(* ------------------------------------------------------------------ *)

let budget_core ~record_trace ~speed ~max_events ~machines ~budget ~(source : Source.t)
    ~(completions : float array) ~(sink : Simulator.sink) =
  let scratch = Arena.borrow () in
  Fun.protect ~finally:(fun () -> Arena.release scratch) @@ fun () ->
  let st = create_in ~waiting:(Arena.scalar3_of scratch) ~machines ~speed ~budget in
  let clk = st.clk in
  let max_alive = ref 0 in
  let admit_upto () =
    while clk.next_arr <= clk.now do
      admit st ~id:(Source.head_id source) ~arrival:(Source.head_arrival source)
        ~size:(Source.head_size source);
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
    for i = 0 to st.n_run - 1 do
      let s = st.slots.(i) in
      entries.(!next) <- { Trace.job = s.id; arrival = s.f.arrival; rate = 1. };
      incr next
    done;
    Heap.Scalar3.iter
      (fun _key id arrival _size _remaining ->
        entries.(!next) <- { Trace.job = id; arrival; rate = 0. };
        incr next)
      st.waiting;
    for i = 0 to st.n_fresh - 1 do
      entries.(!next) <- { Trace.job = st.fresh_ids.(i); arrival = st.fresh_arrivals.(i); rate = 0. };
      incr next
    done;
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
    ~machines ~budget jobs =
  let n = Simulator.validate_jobs jobs in
  let jobs_arr = Simulator.jobs_by_id jobs n in
  let order = Simulator.release_order jobs n in
  let completions = Array.make n Float.nan in
  let summary, trace =
    budget_core ~record_trace ~speed ~max_events ~machines ~budget
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

let run_stream ?(speed = 1.) ?(max_events = 10_000_000) ~machines ~budget ~sink fill =
  let summary, _trace =
    budget_core ~record_trace:false ~speed ~max_events ~machines ~budget
      ~source:(Source.of_raw fill) ~completions:[||] ~sink
  in
  summary
