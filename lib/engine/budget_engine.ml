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
   is evicted.  Each event costs O(m + log alive).  A job's eviction
   count rides with it — in its slot while it runs, as a heap satellite
   while it waits — so no side table is kept, and nothing is allocated
   per job. *)

module Heap = Rr_util.Heap

(* A running slot's floats in an all-float (flat) record: the per-event
   [remaining] write and the resume state copied in when a job is seated
   are plain unboxed stores. *)
type slot_fl = { mutable arrival : float; mutable size : float; mutable remaining : float }

type slot = { mutable id : int; mutable evicted : int; (* times evicted so far *) f : slot_fl }

type state = {
  budget : int;
  machines : int;
  speed : float;
  slots : slot array;  (* running jobs, packed in [0, n_run) *)
  mutable n_run : int;
  waiting : Heap.Scalar3.t;  (* key = remaining, aux = arrival, size, times evicted *)
  (* Arrivals not yet processed by [refresh], in admission order: flat
     parallel buffers, [n_fresh] live entries.  [refresh] always drains
     them all, so they never need to wrap. *)
  mutable fresh_ids : int array;
  mutable fresh_arrivals : float array;
  mutable fresh_sizes : float array;
  mutable n_fresh : int;
  born : Clock.log;
      (* arrivals within [Clock.threshold] that [refresh] left waiting:
         the general loop retires each at the first event after its
         release, so they skip the heap and [settle] retires them there *)
  clk : Clock.t;
  mutable alive : int;
}

(* In a closed run the waiting heap comes from the per-domain arena; a
   live engine passes no arena and owns a fresh one. *)
let create ~clk ~scratch ~machines ~speed ~budget =
  {
    budget;
    machines;
    speed;
    slots =
      Array.init machines (fun _ ->
          { id = -1; evicted = 0; f = { arrival = 0.; size = 0.; remaining = 0. } });
    n_run = 0;
    waiting = Arena.scalar3_of scratch;
    fresh_ids = [||];
    fresh_arrivals = [||];
    fresh_sizes = [||];
    n_fresh = 0;
    born = Clock.log_create ();
    clk;
    alive = 0;
  }

let alive st = st.alive

let admit st id =
  let cap = Array.length st.fresh_ids in
  if st.n_fresh = cap then begin
    let ncap = Int.max 8 (2 * cap) in
    let grow_f a = Array.append a (Array.make (ncap - cap) 0.) in
    st.fresh_ids <- Array.append st.fresh_ids (Array.make (ncap - cap) 0);
    st.fresh_arrivals <- grow_f st.fresh_arrivals;
    st.fresh_sizes <- grow_f st.fresh_sizes
  end;
  st.fresh_ids.(st.n_fresh) <- id;
  st.fresh_arrivals.(st.n_fresh) <- st.clk.arrival;
  st.fresh_sizes.(st.n_fresh) <- st.clk.size;
  st.n_fresh <- st.n_fresh + 1;
  st.alive <- st.alive + 1

(* An evicted incumbent waits with one more eviction to its name. *)
let push_evicted st (s : slot) =
  Heap.Scalar3.add st.waiting ~key:s.f.remaining ~aux1:s.f.arrival ~aux2:s.f.size
    ~aux3:(Float.of_int (s.evicted + 1)) s.id

let pop_into_free_slot st =
  let s = st.slots.(st.n_run) in
  s.f.arrival <- Heap.Scalar3.min_aux1_exn st.waiting;
  s.f.size <- Heap.Scalar3.min_aux2_exn st.waiting;
  s.f.remaining <- Heap.Scalar3.min_key_exn st.waiting;
  s.evicted <- int_of_float (Heap.Scalar3.min_aux3_exn st.waiting);
  s.id <- Heap.Scalar3.pop_exn st.waiting;
  st.n_run <- st.n_run + 1

(* Seat buffered arrival [i] in slot [s], fresh. *)
let seat_fresh st (s : slot) i =
  s.id <- st.fresh_ids.(i);
  s.evicted <- 0;
  s.f.arrival <- st.fresh_arrivals.(i);
  s.f.size <- st.fresh_sizes.(i);
  s.f.remaining <- s.f.size

(* Buffered arrival [i] waits, never evicted: into the heap, or, when its
   size is within the completion threshold, among the born-complete. *)
let wait_fresh st i =
  let id = st.fresh_ids.(i) and size = st.fresh_sizes.(i) in
  if size <= Clock.threshold size then Clock.hold st.born ~id ~arrival:st.fresh_arrivals.(i)
  else
    Heap.Scalar3.add st.waiting ~key:size ~aux1:st.fresh_arrivals.(i) ~aux2:size ~aux3:0. id

(* Mirror of one [allocate] call: refill from the waiting set, then
   process buffered arrivals in admission order.  The rule never reads
   the clock. *)
let refresh st =
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
        if s.evicted < st.budget then
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
      if evict < 0 then wait_fresh st i
      else begin
        let sw = st.slots.(evict) in
        push_evicted st sw;
        seat_fresh st sw i
      end
    end
  done;
  st.n_fresh <- 0

(* The policy never emits a horizon: internal events are completions of
   the running set (rate 1 each), into [st.clk.t_next]. *)
let next_internal st =
  let now = st.clk.now in
  let t = ref Float.infinity in
  for i = 0 to st.n_run - 1 do
    let c = now +. (st.slots.(i).f.remaining /. st.speed) in
    if c < !t then t := c
  done;
  st.clk.t_next <- !t

let advance st =
  let adv = st.speed *. st.clk.dt in
  for i = 0 to st.n_run - 1 do
    let f = st.slots.(i).f in
    f.remaining <- f.remaining -. adv
  done

let settle st out =
  let now = st.clk.now in
  if st.born.count > 0 then begin
    st.alive <- st.alive - st.born.count;
    Clock.release st.born out ~now
  end;
  for i = st.n_run - 1 downto 0 do
    let s = st.slots.(i) in
    if s.f.remaining <= Clock.threshold s.f.size then begin
      Clock.retire out ~id:s.id ~arrival:s.f.arrival ~flow:(now -. s.f.arrival);
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

let iter_alive st f =
  for i = 0 to st.n_run - 1 do
    let s = st.slots.(i) in
    f s.id s.f.arrival 1.
  done;
  Heap.Scalar3.iter (fun _key id arrival _size _remaining -> f id arrival 0.) st.waiting;
  for i = 0 to st.n_fresh - 1 do
    f st.fresh_ids.(i) st.fresh_arrivals.(i) 0.
  done;
  for i = 0 to st.born.count - 1 do
    f st.born.ids.(i) st.born.arrivals.(i) 0.
  done
