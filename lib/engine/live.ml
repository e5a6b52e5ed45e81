(* Incremental, submit-while-running scheduling core.  See live.mli for
   the user-facing contract.

   Each closed-form engine in this library is a loop over a finished
   arrival source; this module re-expresses the same three kernels —
   the equal-share virtual-service deadline heap (simulator.ml), the
   priority-index slot/heap kernel (index_engine.ml) and the SETF group
   cascade (index_engine.ml) — as resumable state advanced on demand, so
   jobs can be submitted while the simulation is already under way.

   The arithmetic deliberately mirrors the closed cores operation for
   operation: the same completion candidates ([now +. remaining /. rate]),
   the same shared completion threshold, the same
   completion-beats-arrival tie rule ([next_arrival < t_complete] picks
   the arrival), and the same admission, retirement and merge orders.  On
   a submit-everything-upfront feed the event sequence is identical.  The
   only divergence is that [advance] may split an inter-event interval at
   an arbitrary horizon: the three private kernels accumulate the advance
   in pieces — a rounding difference bounded well inside the 1e-9
   relative tolerance the differential suite (test_live.ml) pins — while
   the classified cores defer it to the next event (see [step]).

   Everything in [state] is plain mutable data — heaps of float arrays,
   a Queue of scalars, records, an option-linked group list — with no
   closures, so a whole engine snapshots with [Marshal] (which handles
   the SETF prev/next cycles via its sharing machinery).  The completion
   sink is the one closure a live engine carries; it lives outside
   [state] and is re-attached on restore. *)

module Heap = Rr_util.Heap

type spec =
  | Equal_share
  | Indexed of Index_engine.kind
  | Setf_cascade
  | Classified of Policy_class.t

let spec_name = function
  | Equal_share -> "equal-share"
  | Indexed kind -> Index_engine.kind_name kind ^ "-index"
  | Setf_cascade -> "setf-cascade"
  | Classified klass -> Policy_class.engine_name klass

(* Surface names accept every classified policy at its registry-default
   parameters; the typed [Classified] constructor covers arbitrary
   parameters (rr_cli serve goes through the registry and passes the
   policy's own class). *)
let spec_of_string s =
  match String.lowercase_ascii s with
  | "rr" | "round-robin" | "equal-share" -> Some Equal_share
  | "srpt" | "srpt-index" -> Some (Indexed Index_engine.Srpt)
  | "sjf" | "sjf-index" -> Some (Indexed Index_engine.Sjf)
  | "fcfs" | "fcfs-index" -> Some (Indexed Index_engine.Fcfs)
  | "setf" | "setf-cascade" -> Some Setf_cascade
  | "hdf" | "hdf-index" ->
      Some (Classified (Policy_class.Static_key (Policy_class.Key_density { alpha = 2. })))
  | "laps" | "laps-dense" -> Some (Classified (Policy_class.Latest_fraction { beta = 0.5 }))
  | "mlfq" | "mlfq-ladder" ->
      Some
        (Classified (Policy_class.Level_ladder { base_quantum = 0.5; factor = 2.; levels = 24 }))
  | "quantum-rr" | "quantum-cycle" ->
      Some (Classified (Policy_class.Quantum_cycle { quantum = 1. }))
  | "wrr-age" | "wrr-age-dense" ->
      Some (Classified (Policy_class.Aged_share { k = 2; refresh = 0.25; offset = 0.1 }))
  | "wrr-static" | "wrr-static-dense" ->
      Some (Classified (Policy_class.Sized_share { gamma = 1. }))
  | "hybrid" | "hybrid-index" ->
      Some (Classified (Policy_class.Starvation_hybrid { theta = 3. }))
  | "srpt-mig" | "srpt-mig-index" ->
      Some (Classified (Policy_class.Preempt_budget { budget = 1 }))
  | _ -> None

let spec_names =
  [
    "rr";
    "srpt";
    "sjf";
    "fcfs";
    "setf";
    "hdf";
    "laps";
    "mlfq";
    "quantum-rr";
    "wrr-age";
    "wrr-static";
    "hybrid";
    "srpt-mig";
  ]

(* ------------------------------------------------------------------ *)
(* Per-spec core state                                                 *)
(* ------------------------------------------------------------------ *)

(* Equal share: the deadline heap IS the live state (key = admission
   virtual time + size, aux1 = arrival, aux2 = size), plus the virtual
   service clock. *)
type eq_state = { eq_heap : Heap.Scalar2.t; mutable vsrv : float }

(* Priority index: <= m running slots scanned in O(m), everything else in
   the waiting heap with the same uniform satellite layout as
   index_engine.ml (key = Index_engine.job_key, aux1 = arrival,
   aux2 = size, aux3 = remaining). *)
type slot = {
  mutable s_id : int;
  mutable s_arrival : float;
  mutable s_size : float;
  mutable s_remaining : float;
}

type idx_state = {
  kind : Index_engine.kind;
  waiting : Heap.Scalar3.t;
  running : slot array;
  mutable n_run : int;
}

(* SETF: groups of equal attained service in a doubly-linked list sorted
   by level ascending, lazy levels [(level, t_upd, grate)], per-group
   member heaps keyed by size. *)
type group = {
  mutable level : float;
  mutable t_upd : float;
  mutable grate : float;
  members : Heap.Scalar2.t;
  mutable prev : group option;
  mutable next : group option;
}

type setf_state = { mutable first : group option; mutable setf_alive : int }

(* The classified cores reuse the closed engines' incremental state
   directly (class_engine.ml, hybrid_engine.ml, budget_engine.ml): one
   [refresh] per event — never per horizon split — and one advance per
   inter-event interval, so the core replays the general loop's
   allocate-once-per-event discipline (which is what keeps WRR-age's
   drifting weights split-safe) and its arithmetic (see [step]). *)
type core =
  | Eq of eq_state
  | Idx of idx_state
  | Setf of setf_state
  | Cls of Class_engine.state
  | Hyb of Hybrid_engine.state
  | Bud of Budget_engine.state

(* ------------------------------------------------------------------ *)
(* Engine state                                                        *)
(* ------------------------------------------------------------------ *)

type state = {
  spec : spec;
  machines : int;
  speed : float;
  k : int;
  max_events : int;
  core : core;
  (* Classified cores only: true when the cached decision must be
     recomputed before the next event scan (after every processed event,
     admission or idle jump; never after a pure horizon split). *)
  mutable rates_dirty : bool;
  (* Classified cores only: the instant of the last processed event, up
     to which the core's jobs have been advanced.  Horizon splits move
     [now] past it without advancing anything (see [step]). *)
  mutable seg_start : float;
  (* Submitted jobs not yet admitted, in submission = (arrival, id)
     order; arrivals are validated non-decreasing at [submit]. *)
  pending : (int * float * float) Queue.t;
  mutable now : float;
  mutable last_arrival : float;
  mutable submitted : int;
  mutable completed : int;
  mutable events : int;
  mutable makespan : float;
  mutable max_alive : int;
  (* O(1)-memory live metrics: the same accumulators Run.measure fuses —
     Kahan power sum for the Lk norm, Welford moments, running max — plus
     three P-squared sketches for the percentiles. *)
  ps : Rr_util.Kahan.t;
  moments : Rr_util.Welford.t;
  mutable max_flow : float;
  p50 : Rr_util.P2.t;
  p90 : Rr_util.P2.t;
  p99 : Rr_util.P2.t;
}

type t = { st : state; mutable sink : Simulator.sink }

type stats = {
  submitted : int;
  completed : int;
  alive : int;  (** Admitted and unfinished at [now] (excludes [pending]). *)
  pending : int;  (** Submitted with an arrival still in the future. *)
  now : float;
  events : int;
  makespan : float;
  max_alive : int;
  mean_flow : float;
  max_flow : float;
  power_sum : float;
  norm : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let no_sink : Simulator.sink = fun ~id:_ ~arrival:_ ~flow:_ -> ()

(* A live engine is long-lived by design — it owns its heaps outright
   rather than borrowing from the per-domain {!Arena}, whose components
   must not outlive a single borrow.  The allocation happens once per
   [create], not per run, so there is nothing for the arena to save
   here. *)
let create ?(machines = 1) ?(speed = 1.) ?(k = 2) ?(max_events = max_int) ?(sink = no_sink)
    spec =
  if machines < 1 then invalid_arg "Live.create: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Live.create: speed must be finite and positive";
  if k < 1 then invalid_arg "Live.create: k must be >= 1";
  if max_events < 1 then invalid_arg "Live.create: max_events must be >= 1";
  let idx_core kind =
    Idx
      {
        kind;
        waiting = Heap.Scalar3.create ();
        running =
          Array.init machines (fun _ ->
              { s_id = -1; s_arrival = 0.; s_size = 0.; s_remaining = 0. });
        n_run = 0;
      }
  in
  let core =
    match spec with
    | Equal_share | Classified Policy_class.Equal_share ->
        Eq { eq_heap = Heap.Scalar2.create (); vsrv = 0. }
    | Indexed kind -> idx_core kind
    | Classified (Policy_class.Static_key key) -> idx_core (Index_engine.kind_of_key key)
    | Setf_cascade | Classified Policy_class.Attained_cascade ->
        Setf { first = None; setf_alive = 0 }
    | Classified (Policy_class.Starvation_hybrid { theta }) ->
        Hyb (Hybrid_engine.create ~machines ~speed ~theta)
    | Classified (Policy_class.Preempt_budget { budget }) ->
        Bud (Budget_engine.create ~machines ~speed ~budget)
    | Classified klass -> (
        match Class_engine.kind_of_class klass with
        | Some kind -> Cls (Class_engine.create ~machines ~speed kind)
        | None ->
            (* Unreachable: every class is covered above. *)
            invalid_arg "Live.create: unclassifiable spec")
  in
  let st =
    {
      spec;
      machines;
      speed;
      k;
      max_events;
      core;
      rates_dirty = true;
      seg_start = 0.;
      pending = Queue.create ();
      now = 0.;
      last_arrival = 0.;
      submitted = 0;
      completed = 0;
      events = 0;
      makespan = 0.;
      max_alive = 0;
      ps = Rr_util.Kahan.create ();
      moments = Rr_util.Welford.create ();
      max_flow = 0.;
      p50 = Rr_util.P2.create ~p:0.5 ();
      p90 = Rr_util.P2.create ~p:0.9 ();
      p99 = Rr_util.P2.create ~p:0.99 ();
    }
  in
  { st; sink }

let set_sink t sink = t.sink <- sink

(* ------------------------------------------------------------------ *)
(* Submission                                                          *)
(* ------------------------------------------------------------------ *)

let submit t ~arrival ~size =
  let st = t.st in
  if not (Rr_util.Floatx.is_finite_nonneg arrival) then
    invalid_arg "Live.submit: arrival must be a finite non-negative float";
  if not (Float.is_finite size && size > 0.) then
    invalid_arg "Live.submit: size must be finite and positive";
  if arrival < st.last_arrival then
    invalid_arg
      (Printf.sprintf
         "Live.submit: arrivals must be non-decreasing (%g after %g)" arrival
         st.last_arrival);
  if arrival < st.now then
    invalid_arg
      (Printf.sprintf "Live.submit: arrival %g is in the simulated past (now = %g)" arrival
         st.now);
  let id = st.submitted in
  st.submitted <- id + 1;
  st.last_arrival <- arrival;
  Queue.add (id, arrival, size) st.pending;
  id

(* Bulk submission: exactly the pending-queue pushes [submit] would
   perform for the same jobs in the same order (bit-identical engine
   state, differentially pinned by test_serve), with the validation pass
   hoisted out in front.  The whole slice is checked before anything
   mutates, so a rejected batch leaves the engine untouched — the
   serving layer answers ERR off that atomicity without corrupting the
   session ([rr_cli serve]'s BATCH frame lands here). *)
let submit_batch t ~arrivals ~sizes ?(off = 0) ?len () =
  let st = t.st in
  let len = match len with Some l -> l | None -> Array.length arrivals - off in
  if
    off < 0 || len < 0
    || off + len > Array.length arrivals
    || off + len > Array.length sizes
  then invalid_arg "Live.submit_batch: off/len out of bounds";
  let last = ref st.last_arrival in
  for i = off to off + len - 1 do
    let arrival = Array.unsafe_get arrivals i and size = Array.unsafe_get sizes i in
    if not (Rr_util.Floatx.is_finite_nonneg arrival) then
      invalid_arg "Live.submit: arrival must be a finite non-negative float";
    if not (Float.is_finite size && size > 0.) then
      invalid_arg "Live.submit: size must be finite and positive";
    if arrival < !last then
      invalid_arg
        (Printf.sprintf "Live.submit: arrivals must be non-decreasing (%g after %g)" arrival
           !last);
    if arrival < st.now then
      invalid_arg
        (Printf.sprintf "Live.submit: arrival %g is in the simulated past (now = %g)" arrival
           st.now);
    last := arrival
  done;
  let first = st.submitted in
  for i = 0 to len - 1 do
    Queue.add (first + i, Array.unsafe_get arrivals (off + i), Array.unsafe_get sizes (off + i))
      st.pending
  done;
  st.submitted <- first + len;
  if len > 0 then st.last_arrival <- arrivals.(off + len - 1);
  first

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Same float as Simulator.completion_threshold, inlined like the closed
   cores do. *)
let threshold size = 1e-9 *. (1. +. size)

let alive_core (st : state) =
  match st.core with
  | Eq e -> Heap.Scalar2.length e.eq_heap
  | Idx i -> i.n_run + Heap.Scalar3.length i.waiting
  | Setf s -> s.setf_alive
  | Cls c -> Class_engine.alive c
  | Hyb h -> Hybrid_engine.alive h
  | Bud b -> Budget_engine.alive b

let note_alive (st : state) =
  let a = alive_core st in
  if a > st.max_alive then st.max_alive <- a

let complete (t : t) ~id ~arrival =
  let st = t.st in
  let flow = st.now -. arrival in
  st.completed <- st.completed + 1;
  st.makespan <- st.now;
  Rr_util.Kahan.add st.ps (Rr_util.Floatx.powi flow st.k);
  Rr_util.Welford.add st.moments flow;
  if flow > st.max_flow then st.max_flow <- flow;
  Rr_util.P2.add st.p50 flow;
  Rr_util.P2.add st.p90 flow;
  Rr_util.P2.add st.p99 flow;
  t.sink ~id ~arrival ~flow

let next_pending (st : state) =
  match Queue.peek_opt st.pending with Some (_, a, _) -> a | None -> Float.infinity

let bump_events (st : state) =
  st.events <- st.events + 1;
  if st.events > st.max_events then
    raise (Simulator.Event_limit_exceeded { limit = st.max_events; now = st.now })

(* ------------------------------------------------------------------ *)
(* Admission (mirrors each closed core's admit)                        *)
(* ------------------------------------------------------------------ *)

let eq_admit (st : state) (e : eq_state) ~id ~arrival ~size =
  Heap.Scalar2.add e.eq_heap ~key:(e.vsrv +. size) ~aux1:arrival ~aux2:size id;
  note_alive st

let slot_key kind (s : slot) =
  match (kind : Index_engine.kind) with
  | Srpt -> s.s_remaining
  | Sjf -> s.s_size
  | Fcfs -> s.s_arrival
  | Hdf { alpha } -> -.((s.s_size ** alpha) /. s.s_size)

let idx_push_waiting (i : idx_state) ~id ~arrival ~size ~remaining =
  Heap.Scalar3.add i.waiting
    ~key:(Index_engine.job_key i.kind ~arrival ~size ~remaining)
    ~aux1:arrival ~aux2:size ~aux3:remaining id

let idx_pop_into_free_slot (i : idx_state) =
  let a1 = Heap.Scalar3.min_aux1_exn i.waiting in
  let a2 = Heap.Scalar3.min_aux2_exn i.waiting in
  let a3 = Heap.Scalar3.min_aux3_exn i.waiting in
  let id = Heap.Scalar3.pop_exn i.waiting in
  let s = i.running.(i.n_run) in
  s.s_id <- id;
  s.s_arrival <- a1;
  s.s_size <- a2;
  s.s_remaining <- a3;
  i.n_run <- i.n_run + 1

let idx_admit (st : state) (i : idx_state) ~id ~arrival ~size =
  let machines = st.machines in
  if i.n_run < machines then begin
    let s = i.running.(i.n_run) in
    s.s_id <- id;
    s.s_arrival <- arrival;
    s.s_size <- size;
    s.s_remaining <- size;
    i.n_run <- i.n_run + 1
  end
  else begin
    (* Preempt the weakest running job iff the newcomer beats it under
       (key, id) — same tournament as index_core.admit. *)
    let w = ref 0 in
    for x = 1 to machines - 1 do
      let a = i.running.(x) and b = i.running.(!w) in
      let ka = slot_key i.kind a and kb = slot_key i.kind b in
      if ka > kb || (ka = kb && a.s_id > b.s_id) then w := x
    done;
    let s = i.running.(!w) in
    let kj = Index_engine.job_key i.kind ~arrival ~size ~remaining:size in
    let ks = slot_key i.kind s in
    if kj < ks || (kj = ks && id < s.s_id) then begin
      idx_push_waiting i ~id:s.s_id ~arrival:s.s_arrival ~size:s.s_size
        ~remaining:s.s_remaining;
      s.s_id <- id;
      s.s_arrival <- arrival;
      s.s_size <- size;
      s.s_remaining <- size
    end
    else idx_push_waiting i ~id ~arrival ~size ~remaining:size
  end;
  note_alive st

let level_at (g : group) ~speed now = g.level +. (g.grate *. speed *. (now -. g.t_upd))

let setf_unlink (s : setf_state) (g : group) =
  (match g.prev with None -> s.first <- g.next | Some p -> p.next <- g.next);
  match g.next with None -> () | Some nx -> nx.prev <- g.prev

let setf_admit (st : state) (s : setf_state) ~id ~arrival ~size =
  let speed = st.speed and now = st.now in
  let joined =
    match s.first with
    | Some g when Index_engine.same_attained 0. (level_at g ~speed now) ->
        Heap.Scalar2.add g.members ~key:size ~aux1:arrival ~aux2:0. id;
        true
    | _ -> false
  in
  if not joined then begin
    let members = Heap.Scalar2.create () in
    Heap.Scalar2.add members ~key:size ~aux1:arrival ~aux2:0. id;
    let g = { level = 0.; t_upd = now; grate = 0.; members; prev = None; next = s.first } in
    (match s.first with None -> () | Some old -> old.prev <- Some g);
    s.first <- Some g
  end;
  s.setf_alive <- s.setf_alive + 1;
  note_alive st

let admit (st : state) ~id ~arrival ~size =
  st.rates_dirty <- true;
  match st.core with
  | Eq e -> eq_admit st e ~id ~arrival ~size
  | Idx i -> idx_admit st i ~id ~arrival ~size
  | Setf s -> setf_admit st s ~id ~arrival ~size
  | Cls c ->
      Class_engine.admit c ~id ~arrival ~size;
      note_alive st
  | Hyb h ->
      Hybrid_engine.admit h ~id ~arrival ~size;
      note_alive st
  | Bud b ->
      Budget_engine.admit b ~id ~arrival ~size;
      note_alive st

let admit_upto (st : state) now =
  let continue = ref true in
  while !continue do
    match Queue.peek_opt st.pending with
    | Some (id, arrival, size) when arrival <= now ->
        ignore (Queue.pop st.pending);
        admit st ~id ~arrival ~size
    | _ -> continue := false
  done

(* ------------------------------------------------------------------ *)
(* SETF water-filling and event scan (mirrors setf_core)               *)
(* ------------------------------------------------------------------ *)

let setf_refill (st : state) (s : setf_state) =
  let speed = st.speed and now = st.now in
  let rec go g left =
    match g with
    | None -> ()
    | Some g ->
        g.level <- level_at g ~speed now;
        g.t_upd <- now;
        if left > 0. then begin
          let cnt = Float.of_int (Heap.Scalar2.length g.members) in
          let r = Float.min 1. (left /. cnt) in
          g.grate <- r;
          go g.next (if r < 1. then 0. else left -. cnt)
        end
        else if g.grate > 0. then begin
          g.grate <- 0.;
          go g.next 0.
        end
  in
  go s.first (Float.of_int st.machines)

(* Earliest within-group completion or adjacent catch-up in the advancing
   prefix; [infinity] when nothing advances (empty system). *)
let setf_internal_event (st : state) (s : setf_state) =
  let speed = st.speed and now = st.now in
  let t_next = ref Float.infinity in
  let rec scan = function
    | None -> ()
    | Some (g : group) ->
        if g.grate > 0. then begin
          let c = now +. ((Heap.Scalar2.min_key_exn g.members -. g.level) /. (g.grate *. speed)) in
          if c < !t_next then t_next := c;
          (match g.next with
          | Some h ->
              let closing = (g.grate -. h.grate) *. speed in
              let gap = level_at h ~speed now -. g.level in
              if closing > 0. && gap > 0. then begin
                let t = now +. (gap /. closing) in
                if t < !t_next then t_next := t
              end
          | None -> ());
          scan g.next
        end
  in
  scan s.first;
  !t_next

(* ------------------------------------------------------------------ *)
(* The incremental event loop                                          *)
(* ------------------------------------------------------------------ *)

(* Advance the state across one inter-event interval or up to [target],
   whichever comes first.  Returns [true] when a full event was processed
   (so the loop should continue) and [false] when the horizon was reached.
   Mirrors one iteration of the matching closed core's while loop. *)
let step (t : t) ~target =
  let st = t.st in
  if alive_core st = 0 then begin
    match Queue.peek_opt st.pending with
    | Some (_, a, _) when a <= target ->
        (* Idle period: jump straight to the next arrival. *)
        bump_events st;
        st.now <- a;
        admit_upto st st.now;
        true
    | _ ->
        (* Idle through the whole horizon.  An infinite horizon (drain)
           leaves [now] at the makespan instead of consuming it. *)
        if Float.is_finite target && target > st.now then st.now <- target;
        false
  end
  else
    match st.core with
    | Eq e ->
        let n_alive = Heap.Scalar2.length e.eq_heap in
        let share = Float.min 1. (Float.of_int st.machines /. Float.of_int n_alive) in
        let rate = share *. st.speed in
        let t_complete = st.now +. ((Heap.Scalar2.min_key_exn e.eq_heap -. e.vsrv) /. rate) in
        let next_arrival = next_pending st in
        let is_completion = not (next_arrival < t_complete) in
        let t_next = if is_completion then t_complete else next_arrival in
        if t_next > target then begin
          (* Horizon splits the interval: advance the virtual clock to
             [target] and stop; no event fires. *)
          e.vsrv <- e.vsrv +. (rate *. (target -. st.now));
          st.now <- target;
          false
        end
        else begin
          bump_events st;
          e.vsrv <- e.vsrv +. (rate *. (t_next -. st.now));
          st.now <- t_next;
          let retire () =
            let id = Heap.Scalar2.min_val_exn e.eq_heap in
            let arrival = Heap.Scalar2.min_aux1_exn e.eq_heap in
            ignore (Heap.Scalar2.pop_exn e.eq_heap : int);
            complete t ~id ~arrival
          in
          if is_completion then retire ();
          while
            (not (Heap.Scalar2.is_empty e.eq_heap))
            && Heap.Scalar2.min_key_exn e.eq_heap -. e.vsrv
               <= threshold (Heap.Scalar2.min_aux2_exn e.eq_heap)
          do
            retire ()
          done;
          admit_upto st st.now;
          true
        end
    | Idx i ->
        let t_complete = ref Float.infinity in
        for x = 0 to i.n_run - 1 do
          let c = st.now +. (i.running.(x).s_remaining /. st.speed) in
          if c < !t_complete then t_complete := c
        done;
        let next_arrival = next_pending st in
        let t_next = if next_arrival < !t_complete then next_arrival else !t_complete in
        if t_next > target then begin
          let dt = target -. st.now in
          for x = 0 to i.n_run - 1 do
            let s = i.running.(x) in
            s.s_remaining <- s.s_remaining -. (st.speed *. dt)
          done;
          st.now <- target;
          false
        end
        else begin
          bump_events st;
          let dt = t_next -. st.now in
          for x = 0 to i.n_run - 1 do
            let s = i.running.(x) in
            s.s_remaining <- s.s_remaining -. (st.speed *. dt)
          done;
          st.now <- t_next;
          for x = i.n_run - 1 downto 0 do
            let s = i.running.(x) in
            if s.s_remaining <= threshold s.s_size then begin
              complete t ~id:s.s_id ~arrival:s.s_arrival;
              i.n_run <- i.n_run - 1;
              if x < i.n_run then begin
                i.running.(x) <- i.running.(i.n_run);
                i.running.(i.n_run) <- s
              end
            end
          done;
          while i.n_run < st.machines && not (Heap.Scalar3.is_empty i.waiting) do
            idx_pop_into_free_slot i
          done;
          admit_upto st st.now;
          true
        end
    | Setf s ->
        (* Rates reflect the structure left by the previous event. *)
        setf_refill st s;
        let t_internal = setf_internal_event st s in
        let next_arrival = next_pending st in
        let t_next = if next_arrival < t_internal then next_arrival else t_internal in
        if t_next > target then begin
          (* Levels are lazy [(level, t_upd, grate)]; no event fires in
             (now, target], so moving the clock is the whole advance. *)
          st.now <- target;
          false
        end
        else begin
          bump_events st;
          let dt = t_next -. st.now in
          let rec advance = function
            | None -> ()
            | Some (g : group) ->
                if g.grate > 0. then begin
                  g.level <- g.level +. (g.grate *. st.speed *. dt);
                  g.t_upd <- t_next;
                  advance g.next
                end
          in
          advance s.first;
          st.now <- t_next;
          let rec retire = function
            | None -> ()
            | Some (g : group) ->
                if g.grate > 0. then begin
                  let nxt = g.next in
                  while
                    (not (Heap.Scalar2.is_empty g.members))
                    && Heap.Scalar2.min_key_exn g.members -. g.level
                       <= threshold (Heap.Scalar2.min_key_exn g.members)
                  do
                    let arrival = Heap.Scalar2.min_aux1_exn g.members in
                    let id = Heap.Scalar2.pop_exn g.members in
                    complete t ~id ~arrival;
                    s.setf_alive <- s.setf_alive - 1
                  done;
                  if Heap.Scalar2.is_empty g.members then setf_unlink s g;
                  retire nxt
                end
          in
          retire s.first;
          let rec merge_pass = function
            | None -> ()
            | Some (g : group) ->
                if g.grate > 0. then
                  match g.next with
                  | Some h
                    when Index_engine.same_attained g.level (level_at h ~speed:st.speed st.now)
                    ->
                      let lvl = level_at h ~speed:st.speed st.now in
                      let src, keep =
                        if Heap.Scalar2.length g.members <= Heap.Scalar2.length h.members
                        then (g, h)
                        else (h, g)
                      in
                      Heap.Scalar2.iter
                        (fun size id arrival _ ->
                          Heap.Scalar2.add keep.members ~key:size ~aux1:arrival ~aux2:0. id)
                        src.members;
                      Heap.Scalar2.clear src.members;
                      keep.level <- lvl;
                      keep.t_upd <- st.now;
                      keep.grate <- Float.max g.grate h.grate;
                      setf_unlink s src;
                      merge_pass (Some keep)
                  | _ -> merge_pass g.next
          in
          merge_pass s.first;
          admit_upto st st.now;
          true
        end
    | Cls _ | Hyb _ | Bud _ ->
        (* One shared skeleton: refresh the cached decision only when the
           state changed since the last event (admission, settle, idle
           jump) — a pure horizon split keeps the rates, exactly like the
           general loop's allocate-once-per-event discipline.

           The core is advanced lazily, at events only: the next event is
           computed from [seg_start], the last event's instant, and the
           jobs are advanced by the whole interval since then in one
           step.  A horizon split therefore moves [now] and nothing else,
           and however a caller splits time, the core performs the same
           float operations as the closed engine on the same jobs.
           Advancing at every split instead accumulates each interval in
           pieces, and the rounding of the pieces decides knife edges the
           closed engine decides the other way: a job whose residual work
           lands exactly on its completion threshold as an equal-share
           neighbour finishes (MLFQ sizes on a threshold T and on
           T - 1e-9 (1 + T)) completes a whole shared-rate interval
           early or late. *)
        let refresh () =
          match st.core with
          | Cls c -> Class_engine.refresh c ~now:st.now
          | Hyb h -> Hybrid_engine.refresh h ~now:st.now
          | Bud b -> Budget_engine.refresh b ~now:st.now
          | _ -> assert false
        in
        let next_internal () =
          match st.core with
          | Cls c -> Class_engine.next_internal c ~now:st.seg_start
          | Hyb h -> Hybrid_engine.next_internal h ~now:st.seg_start
          | Bud b -> Budget_engine.next_internal b ~now:st.seg_start
          | _ -> assert false
        in
        let advance_by dt =
          match st.core with
          | Cls c -> Class_engine.advance c ~dt
          | Hyb h -> Hybrid_engine.advance h ~dt
          | Bud b -> Budget_engine.advance b ~dt
          | _ -> assert false
        in
        let settle () =
          let complete' ~id ~arrival ~flow:_ = complete t ~id ~arrival in
          match st.core with
          | Cls c -> Class_engine.settle c ~now:st.now ~complete:complete'
          | Hyb h -> Hybrid_engine.settle h ~now:st.now ~complete:complete'
          | Bud b -> Budget_engine.settle b ~now:st.now ~complete:complete'
          | _ -> assert false
        in
        if st.rates_dirty then begin
          refresh ();
          st.seg_start <- st.now;
          st.rates_dirty <- false
        end;
        let t_internal = next_internal () in
        let next_arrival = next_pending st in
        let t_next = if next_arrival < t_internal then next_arrival else t_internal in
        if t_next > target then begin
          st.now <- target;
          false
        end
        else begin
          bump_events st;
          let dt = t_next -. st.seg_start in
          if dt > 0. then advance_by dt;
          st.now <- t_next;
          settle ();
          admit_upto st st.now;
          st.rates_dirty <- true;
          true
        end

let advance_until t ~target =
  while step t ~target do
    ()
  done

let advance t target =
  if Float.is_nan target then invalid_arg "Live.advance: time must not be NaN";
  if Float.is_finite target && target > t.st.now then advance_until t ~target
(* A target at or before [now] is a no-op — time never rewinds.  An
   infinite target is treated as drain. *)
  else if target = Float.infinity then advance_until t ~target:Float.infinity

let drain t = advance_until t ~target:Float.infinity

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let query (t : t) =
  let st = t.st in
  let n = st.completed in
  let power_sum = Rr_util.Kahan.total st.ps in
  {
    submitted = st.submitted;
    completed = n;
    alive = alive_core st;
    pending = Queue.length st.pending;
    now = st.now;
    events = st.events;
    makespan = st.makespan;
    max_alive = st.max_alive;
    mean_flow = Rr_util.Welford.mean st.moments;
    max_flow = st.max_flow;
    power_sum;
    norm = (if n = 0 then 0. else power_sum ** (1. /. Float.of_int st.k));
    p50 = Rr_util.P2.value st.p50;
    p90 = Rr_util.P2.value st.p90;
    p99 = Rr_util.P2.value st.p99;
  }

let now t = t.st.now
let spec t = t.st.spec
let machines t = t.st.machines
let speed t = t.st.speed
let k t = t.st.k

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)
(* ------------------------------------------------------------------ *)

(* [state] is closure-free, so Marshal round-trips it; the default flags
   keep sharing on, which is what resolves the SETF group list's
   prev/next cycles.  A short magic header versions the format so a junk
   file fails loudly instead of segfaulting the unmarshaller.  The
   version names the memory layout of [state] and of the kernel states
   it embeds: any change to either must bump it, or an older build's
   snapshot would be unmarshalled into the new layout.  v3: the class,
   hybrid and budget kernels keep their floats in flat all-float
   records. *)

let snapshot_magic = "rr-live-snapshot-v3\n"

let to_bytes t =
  Bytes.cat (Bytes.of_string snapshot_magic) (Marshal.to_bytes t.st [])

let of_bytes ?(sink = no_sink) b =
  let m = String.length snapshot_magic in
  if
    Bytes.length b < m
    || not (String.equal (Bytes.sub_string b 0 m) snapshot_magic)
  then failwith "Live.of_bytes: not a live-engine snapshot";
  let st : state = Marshal.from_bytes b m in
  { st; sink }

let save t path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc (to_bytes t))

let load ?(sink = no_sink) path =
  In_channel.with_open_bin path (fun ic ->
      match In_channel.input_all ic with
      | s -> of_bytes ~sink (Bytes.of_string s))
