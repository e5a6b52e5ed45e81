exception Invalid_allocation of string

exception Event_limit_exceeded of { limit : int; now : float }

let () =
  Printexc.register_printer (function
    | Event_limit_exceeded { limit; now } ->
        Some
          (Printf.sprintf
             "Rr_engine.Simulator.Event_limit_exceeded (budget %d exhausted at t = %g)" limit now)
    | _ -> None)

type sink = id:int -> arrival:float -> flow:float -> unit

(* ------------------------------------------------------------------ *)
(* Arrival sources                                                     *)
(* ------------------------------------------------------------------ *)

(* Both engines consume arrivals through this one-job-lookahead interface:
   the sorted-array path of {!run}/{!run_equal_share} and the lazy
   generators of {!Rr_workload} [Instance.Stream] implement the same pull
   function, so "how many jobs exist" is independent of the event loop.
   Validity and monotonicity are enforced at the boundary — a source that
   emits a job released before its predecessor is a bug in the producer,
   caught here rather than as silent time travel inside the loop.

   The lookahead is stored {e unboxed}: the head job lives as an int id
   plus a flat all-float cursor record, not as a [Job.t option].  Raw
   producers ({!of_raw}) write the cursor fields directly and never
   construct a [Job.t] at all, which is what lets the equal-share
   streaming path run at ~0 words per job; the boxed [peek]/[next] view
   is memoized on top for the engines that want whole jobs. *)
module Source = struct
  type cursor = { mutable arrival : float; mutable size : float }
  (* All-float record: flat representation, so field writes never box. *)

  type t = {
    refill : t -> int;
        (* Write the next job into [cur] and return its id, or -1 when
           exhausted (then never called again).  May stash a [Job.t] in
           [head_job] when it has one anyway. *)
    cur : cursor;
    mutable head_id : int;  (* -1 = no job buffered *)
    mutable head_job : Job.t option;  (* boxed memo of the buffered job *)
    mutable last_arrival : float;
    mutable drained : bool;
  }

  let make refill =
    {
      refill;
      cur = { arrival = 0.; size = 0. };
      head_id = -1;
      head_job = None;
      last_arrival = Float.neg_infinity;
      drained = false;
    }

  let of_raw fill = make (fun t -> fill t.cur)

  let of_fn pull =
    make (fun t ->
        match pull () with
        | None -> -1
        | Some j ->
            t.cur.arrival <- j.Job.arrival;
            t.cur.size <- j.Job.size;
            t.head_job <- Some j;
            j.Job.id)

  let of_array jobs =
    let i = ref 0 in
    make (fun t ->
        if !i >= Array.length jobs then -1
        else begin
          let j = jobs.(!i) in
          incr i;
          t.cur.arrival <- j.Job.arrival;
          t.cur.size <- j.Job.size;
          t.head_job <- Some j;
          j.Job.id
        end)

  (* Cold-ish: once per job, never per event.  Validation mirrors
     [Job.make] so raw producers get the same guarantees as boxed ones. *)
  let refill_head t =
    let id = t.refill t in
    if id < 0 then begin
      t.drained <- true;
      t.head_job <- None
    end
    else begin
      if not (Float.is_finite t.cur.arrival && t.cur.arrival >= 0.) then
        invalid_arg
          (Printf.sprintf "Simulator.Source: job #%d has invalid arrival %g" id t.cur.arrival);
      if not (Float.is_finite t.cur.size && t.cur.size > 0.) then
        invalid_arg
          (Printf.sprintf "Simulator.Source: job #%d has invalid size %g" id t.cur.size);
      if t.cur.arrival < t.last_arrival then
        invalid_arg
          (Printf.sprintf
             "Simulator.Source: arrivals must be non-decreasing (job #%d at %g after %g)" id
             t.cur.arrival t.last_arrival);
      t.last_arrival <- t.cur.arrival;
      t.head_id <- id
    end

  let[@inline] fill t = if t.head_id < 0 && not t.drained then refill_head t

  let[@inline] has_more t =
    fill t;
    t.head_id >= 0

  let[@inline] next_arrival t =
    fill t;
    if t.head_id >= 0 then t.cur.arrival else Float.infinity

  (* Raw view of the buffered job; valid only after [has_more] returned
     [true] (or [fill]).  These are plain field reads once inlined. *)
  let[@inline] head_id t = t.head_id
  let[@inline] head_arrival t = t.cur.arrival
  let[@inline] head_size t = t.cur.size

  let[@inline] advance t =
    t.head_id <- -1;
    t.head_job <- None

  (* Boxed view: memoized, so producers that hand over whole jobs
     ([of_fn]/[of_array]) never re-box and raw producers box at most once
     per job — and only if somebody peeks. *)
  let peek t =
    fill t;
    if t.head_id < 0 then None
    else
      match t.head_job with
      | Some _ as h -> h
      | None ->
          let h = Some (Job.make ~id:t.head_id ~arrival:t.cur.arrival ~size:t.cur.size) in
          t.head_job <- h;
          h

  let next t =
    match peek t with
    | None -> None
    | Some _ as h ->
        advance t;
        h
end

type live = {
  job : Job.t;
  mutable remaining : float;
  mutable attained : float;
  view : Policy.view;  (* persistent; mutable fields refreshed in place *)
}

type result = {
  jobs : Job.t array;
  completions : float array;
  trace : Trace.t;
  machines : int;
  speed : float;
  events : int;
}

type summary = {
  n : int;
  events : int;
  machines : int;
  speed : float;
  makespan : float;
  max_alive : int;
}

let validate_jobs jobs =
  let n = List.length jobs in
  let seen = Array.make n false in
  List.iter
    (fun (j : Job.t) ->
      if j.id >= n || seen.(j.id) then
        invalid_arg "Simulator.run: job ids must be exactly 0 .. n-1, without duplicates";
      seen.(j.id) <- true)
    jobs;
  n

(* A job counts as complete when its residual work is negligible relative to
   its size; the threshold absorbs the rounding of the analytic advance. *)
let[@inline] completion_threshold size = 1e-9 *. (1. +. size)

let done_threshold (l : live) = completion_threshold l.job.size

let jobs_by_id jobs n =
  let slots = Array.make n None in
  List.iter (fun (j : Job.t) -> slots.(j.id) <- Some j) jobs;
  Array.map (function Some j -> j | None -> assert false) slots

(* Instances hand their jobs over already ordered by (arrival, id); detect
   that in one linear pass and skip the O(n log n) sort — for short
   simulations the sort is a large slice of the whole run.

   The result is memoized for the most recent job list (compared by
   physical equality — [Instance.jobs] returns the same list each call),
   so back-to-back runs over one instance, the common shape of every
   ratio experiment, pay the list walk once.  Jobs are immutable and all
   engines only read the array, which is what makes sharing it sound; the
   memo holds an immutable pair so concurrent domains at worst recompute. *)
let release_memo : (Job.t list * Job.t array) ref = ref ([], [||])

let release_order jobs n =
  let js, ord = !release_memo in
  if js == jobs && Array.length ord = n then ord
  else begin
    let order = Array.of_list jobs in
    let sorted = ref true in
    for i = 0 to n - 2 do
      if Job.compare_release order.(i) order.(i + 1) > 0 then sorted := false
    done;
    if not !sorted then Array.sort Job.compare_release order;
    release_memo := (jobs, order);
    order
  end

let validate_decision ~machines ~now ~n_alive (d : Policy.decision) =
  if Array.length d.rates <> n_alive then
    raise (Invalid_allocation "rate vector length differs from the number of alive jobs");
  let sum = ref 0. in
  Array.iteri
    (fun i r ->
      if not (Float.is_finite r) then raise (Invalid_allocation "non-finite rate");
      if r < -1e-9 || r > 1. +. 1e-9 then
        raise (Invalid_allocation (Printf.sprintf "rate %g outside [0, 1]" r));
      d.rates.(i) <- Rr_util.Floatx.clamp ~lo:0. ~hi:1. r;
      sum := !sum +. d.rates.(i))
    d.rates;
  if !sum > Float.of_int machines +. 1e-6 then
    raise
      (Invalid_allocation
         (Printf.sprintf "rates sum to %g > %d machines" !sum machines));
  match d.horizon with
  | Some h when not (h > now) ->
      raise (Invalid_allocation (Printf.sprintf "horizon %g not after now = %g" h now))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* General engine: one policy invocation per event                     *)
(* ------------------------------------------------------------------ *)

(* The core loop is shared by the materialized and the streaming entry
   points: it never sees the job count, only the source's one-job
   lookahead, and reports each completion through [complete].  Live state
   is O(alive): the swap-remove vector of live jobs, the views scratch
   array, and (only when requested) the trace arena. *)
let general_core ~record_trace ~speed ~max_events ~machines ~(policy : Policy.t)
    ~(source : Source.t) ~(complete : Job.t -> float -> unit) =
  if machines < 1 then invalid_arg "Simulator.run: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Simulator.run: speed must be finite and positive";
  let scratch = Arena.borrow () in
  Fun.protect ~finally:(fun () -> Arena.release scratch) @@ fun () ->
  let clairvoyant = policy.clairvoyant in
  (* Alive jobs in a swap-remove vector; policy views follow this order.
     Each live job owns one view record for its whole lifetime: only the
     mutable fields change between events, so the steady-state loop
     allocates no views.  (For clairvoyant policies the [remaining] option
     cell is still reboxed per job per event — two words, against the
     seven-word view record plus two option cells it replaces.) *)
  let alive : live Rr_util.Vec.t = Rr_util.Vec.create () in
  let completed = ref 0 in
  let max_alive = ref 0 in
  let makespan = ref 0. in
  let push_alive (j : Job.t) =
    let view =
      {
        Policy.id = j.id;
        arrival = j.arrival;
        attained = 0.;
        size = (if clairvoyant then Some j.size else None);
        remaining = (if clairvoyant then Some j.size else None);
      }
    in
    Rr_util.Vec.push alive { job = j; remaining = j.size; attained = 0.; view };
    if Rr_util.Vec.length alive > !max_alive then max_alive := Rr_util.Vec.length alive
  in
  let admit_upto now =
    let continue = ref true in
    while !continue do
      match Source.peek source with
      | Some j when j.Job.arrival <= now ->
          ignore (Source.next source);
          push_alive j
      | _ -> continue := false
    done
  in
  (* Scratch array handed to the policy.  It must have length exactly
     [n_alive] (policies measure it), so it is reallocated only when the
     alive count changes; otherwise the persistent view records are
     re-pointed into it — a copy, not an allocation. *)
  let views_scratch = ref [||] in
  let sync_views n_alive =
    if Array.length !views_scratch <> n_alive then
      views_scratch := Array.init n_alive (fun i -> (Rr_util.Vec.get alive i).view)
    else begin
      let vs = !views_scratch in
      for i = 0 to n_alive - 1 do
        vs.(i) <- (Rr_util.Vec.get alive i).view
      done
    end;
    !views_scratch
  in
  (* Trace arena: segments accumulate in a growable buffer (borrowed from
     the per-domain arena when available) and are flushed to the list
     representation once, instead of cons-and-reverse. *)
  let trace_arena : Trace.segment Rr_util.Vec.t = Arena.segments_of scratch in
  let events = ref 0 in
  let now = ref (match Source.peek source with Some j -> j.Job.arrival | None -> 0.) in
  admit_upto !now;
  while Rr_util.Vec.length alive > 0 || Source.has_more source do
    incr events;
    if !events > max_events then
      raise (Event_limit_exceeded { limit = max_events; now = !now });
    if Rr_util.Vec.length alive = 0 then begin
      (* Idle period: jump straight to the next arrival. *)
      now := Source.next_arrival source;
      admit_upto !now
    end
    else begin
      let n_alive = Rr_util.Vec.length alive in
      for i = 0 to n_alive - 1 do
        let l = Rr_util.Vec.get alive i in
        let v = l.view in
        v.attained <- l.attained;
        if clairvoyant then v.remaining <- Some l.remaining
      done;
      let views = sync_views n_alive in
      let decision = policy.allocate ~now:!now ~machines ~speed views in
      validate_decision ~machines ~now:!now ~n_alive decision;
      let rates = decision.rates in
      let next_arrival = Source.next_arrival source in
      (* Earliest analytic completion under the current constant rates,
         folded inline.  Rates are fresh every event, so any heap over
         completion times would be rebuilt from scratch per event and lose
         to this single O(alive) pass; the heap-ordered cascade lives in
         {!run_equal_share}, where rates are a function of the count alone. *)
      let t_next = ref Float.infinity in
      for i = 0 to n_alive - 1 do
        let v = rates.(i) *. speed in
        if v > 0. then begin
          let c = !now +. ((Rr_util.Vec.get alive i).remaining /. v) in
          if c < !t_next then t_next := c
        end
      done;
      if next_arrival < !t_next then t_next := next_arrival;
      (match decision.horizon with Some h when h < !t_next -> t_next := h | _ -> ());
      if not (Float.is_finite !t_next) then
        raise
          (Invalid_allocation
             "alive jobs receive no service and no arrival or horizon is pending");
      let dt = !t_next -. !now in
      assert (dt > 0.);
      if record_trace then begin
        let entries =
          Array.init n_alive (fun i ->
              let l = Rr_util.Vec.get alive i in
              { Trace.job = l.job.id; arrival = l.job.arrival; rate = rates.(i) })
        in
        Rr_util.Vec.push trace_arena { Trace.t0 = !now; t1 = !t_next; alive = entries }
      end;
      for i = 0 to n_alive - 1 do
        let l = Rr_util.Vec.get alive i in
        let delta = rates.(i) *. speed *. dt in
        l.remaining <- l.remaining -. delta;
        l.attained <- l.attained +. delta
      done;
      now := !t_next;
      (* Retire finished jobs; iterate downwards because of swap-remove. *)
      for i = n_alive - 1 downto 0 do
        let l = Rr_util.Vec.get alive i in
        if l.remaining <= done_threshold l then begin
          complete l.job !now;
          incr completed;
          makespan := !now;
          Rr_util.Vec.swap_remove alive i
        end
      done;
      admit_upto !now
    end
  done;
  let trace = Rr_util.Vec.to_list trace_arena in
  ( {
      n = !completed;
      events = !events;
      machines;
      speed;
      makespan = !makespan;
      max_alive = !max_alive;
    },
    trace )

let no_sink : sink = fun ~id:_ ~arrival:_ ~flow:_ -> ()

let run ?(record_trace = false) ?(speed = 1.) ?(max_events = 10_000_000) ?(sink = no_sink)
    ~machines ~(policy : Policy.t) jobs =
  let n = validate_jobs jobs in
  let jobs_arr = jobs_by_id jobs n in
  let order = release_order jobs n in
  let completions = Array.make n Float.nan in
  let complete (j : Job.t) now =
    completions.(j.id) <- now;
    sink ~id:j.id ~arrival:j.arrival ~flow:(now -. j.arrival)
  in
  let summary, trace =
    general_core ~record_trace ~speed ~max_events ~machines ~policy
      ~source:(Source.of_array order) ~complete
  in
  { jobs = jobs_arr; completions; trace; machines; speed; events = summary.events }

let run_stream ?(speed = 1.) ?(max_events = 10_000_000) ~machines ~(policy : Policy.t) ~sink
    pull =
  let complete (j : Job.t) now = sink ~id:j.id ~arrival:j.arrival ~flow:(now -. j.arrival) in
  let summary, _trace =
    general_core ~record_trace:false ~speed ~max_events ~machines ~policy
      ~source:(Source.of_fn pull) ~complete
  in
  summary

(* ------------------------------------------------------------------ *)
(* Closed-form equal-share (RR) engine                                 *)
(* ------------------------------------------------------------------ *)

(* Under an equal-share policy every alive job is served at the same
   instantaneous rate [min(1, m/n) * speed], a function of the alive count
   alone.  Let V(t) be the cumulative service each alive job has received
   ("virtual service"): a job admitted when the clock read [V_a] completes
   exactly when V reaches its deadline [V_a + size].  Jobs therefore
   complete in deadline order, so a single binary heap of deadlines
   ({!Rr_util.Heap.Scalar2}, keyed on the deadline with the job id as
   payload and the arrival and size as satellites) replaces the per-event
   policy invocation and O(alive) scans of the general engine: each arrival
   or completion costs O(log alive), the whole run O((n + events) log
   alive), with no allocation per event and no O(n) side table — the heap
   IS the whole live state, so the same core drives both the materialized
   and the streaming entry point. *)

(* All-float, hence flat, so the per-event clock/virtual-service updates
   are plain unboxed stores.  [float ref] cells here would box a fresh
   float on every assignment — a few words per event that the B4
   words-per-job gate would see. *)
type es_state = { mutable vsrv : float; mutable now : float; mutable makespan : float }

let equal_share_core ~record_trace ~speed ~max_events ~machines ~(source : Source.t)
    ~(completions : float array) ~(sink : sink) =
  if machines < 1 then invalid_arg "Simulator.run_equal_share: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Simulator.run_equal_share: speed must be finite and positive";
  let scratch = Arena.borrow () in
  Fun.protect ~finally:(fun () -> Arena.release scratch) @@ fun () ->
  let heap = Arena.scalar2_of scratch in
  let st = { vsrv = 0.; now = 0.; makespan = 0. } in
  let completed = ref 0 in
  let max_alive = ref 0 in
  (* Roster of alive jobs, maintained only for trace recording; [pos]
     tracks each job's slot so completions remove in O(1).  The pos table
     grows with the largest id seen, which the streaming entry point never
     exercises (it passes record_trace:false). *)
  let roster : Job.t Rr_util.Vec.t = Arena.jobs_of scratch in
  let pos = ref [||] in
  let ensure_pos id =
    let cap = Array.length !pos in
    if id >= cap then begin
      let ncap = Int.max 8 (Int.max (2 * cap) (id + 1)) in
      let np = Array.make ncap (-1) in
      Array.blit !pos 0 np 0 cap;
      pos := np
    end
  in
  let drop id =
    if record_trace then begin
      let i = !pos.(id) in
      let last = Rr_util.Vec.length roster - 1 in
      let moved = Rr_util.Vec.get roster last in
      Rr_util.Vec.swap_remove roster i;
      if i < last then !pos.(moved.id) <- i;
      !pos.(id) <- -1
    end
  in
  (* Admission reads the source through the raw unboxed view: id plus two
     cursor floats, no [Job.t], no option.  The boxed job is materialized
     (memoized [peek]) only on the trace-recording path. *)
  let admit_upto now =
    while Source.has_more source && Source.head_arrival source <= now do
      let id = Source.head_id source in
      let size = Source.head_size source in
      Rr_util.Heap.Scalar2.add heap ~key:(st.vsrv +. size)
        ~aux1:(Source.head_arrival source) ~aux2:size id;
      if Rr_util.Heap.Scalar2.length heap > !max_alive then
        max_alive := Rr_util.Heap.Scalar2.length heap;
      if record_trace then begin
        let j = match Source.peek source with Some j -> j | None -> assert false in
        ensure_pos id;
        !pos.(id) <- Rr_util.Vec.length roster;
        Rr_util.Vec.push roster j
      end;
      Source.advance source
    done
  in
  let trace_arena : Trace.segment Rr_util.Vec.t = Arena.segments_of scratch in
  (* Hoisted out of the event loop: a [let retire () = ...] in the loop
     body would allocate its closure once per event.  The sink is called
     directly (no intermediate completion callback), so a completion costs
     exactly one unknown call — two boxed floats — on the streaming path;
     the materialized entry point passes a completions array and the exact
     completion instant is recorded unboxed before the sink sees the
     derived flow. *)
  let retire () =
    let id = Rr_util.Heap.Scalar2.min_val_exn heap in
    let arrival = Rr_util.Heap.Scalar2.min_aux1_exn heap in
    ignore (Rr_util.Heap.Scalar2.pop_exn heap : int);
    if Array.length completions > 0 then completions.(id) <- st.now;
    sink ~id ~arrival ~flow:(st.now -. arrival);
    incr completed;
    st.makespan <- st.now;
    drop id
  in
  let events = ref 0 in
  st.now <- (if Source.has_more source then Source.head_arrival source else 0.);
  admit_upto st.now;
  while Rr_util.Heap.Scalar2.length heap > 0 || Source.has_more source do
    incr events;
    if !events > max_events then
      raise (Event_limit_exceeded { limit = max_events; now = st.now });
    if Rr_util.Heap.Scalar2.is_empty heap then begin
      st.now <- Source.next_arrival source;
      admit_upto st.now
    end
    else begin
      let n_alive = Rr_util.Heap.Scalar2.length heap in
      let share =
        let s = Float.of_int machines /. Float.of_int n_alive in
        if s > 1. then 1. else s
      in
      let rate = share *. speed in
      let t_complete =
        st.now +. ((Rr_util.Heap.Scalar2.min_key_exn heap -. st.vsrv) /. rate)
      in
      (* Completion wins a tie with an arrival, exactly like the general
         engine's [a < t_next] guard. *)
      let next_arrival = Source.next_arrival source in
      let is_completion = not (next_arrival < t_complete) in
      let t_next = if is_completion then t_complete else next_arrival in
      let dt = t_next -. st.now in
      assert (dt > 0.);
      if record_trace then begin
        let entries =
          Array.init (Rr_util.Vec.length roster) (fun i ->
              let j = Rr_util.Vec.get roster i in
              { Trace.job = j.id; arrival = j.arrival; rate = share })
        in
        Rr_util.Vec.push trace_arena { Trace.t0 = st.now; t1 = t_next; alive = entries }
      end;
      st.vsrv <- st.vsrv +. (rate *. dt);
      st.now <- t_next;
      if is_completion then
        (* The head's deadline defined this event time; retire it even if
           rounding left [vsrv] an ulp short of the deadline. *)
        retire ();
      (* Cascade every job whose residual virtual service is within the
         completion threshold of this instant (simultaneous completions,
         and arrivals landing exactly on a completion). *)
      while
        (not (Rr_util.Heap.Scalar2.is_empty heap))
        && Rr_util.Heap.Scalar2.min_key_exn heap -. st.vsrv
           <= completion_threshold (Rr_util.Heap.Scalar2.min_aux2_exn heap)
      do
        retire ()
      done;
      admit_upto st.now
    end
  done;
  let trace = Rr_util.Vec.to_list trace_arena in
  ( {
      n = !completed;
      events = !events;
      machines;
      speed;
      makespan = st.makespan;
      max_alive = !max_alive;
    },
    trace )

let run_equal_share ?(record_trace = false) ?(speed = 1.) ?(max_events = 10_000_000)
    ?(sink = no_sink) ~machines jobs =
  let n = validate_jobs jobs in
  let jobs_arr = jobs_by_id jobs n in
  let order = release_order jobs n in
  let completions = Array.make n Float.nan in
  let summary, trace =
    equal_share_core ~record_trace ~speed ~max_events ~machines
      ~source:(Source.of_array order) ~completions ~sink
  in
  { jobs = jobs_arr; completions; trace; machines; speed; events = summary.events }

let run_equal_share_stream_raw ?(speed = 1.) ?(max_events = 10_000_000) ~machines ~sink fill =
  let summary, _trace =
    equal_share_core ~record_trace:false ~speed ~max_events ~machines
      ~source:(Source.of_raw fill) ~completions:[||] ~sink
  in
  summary

let flows r = Array.mapi (fun i c -> c -. r.jobs.(i).Job.arrival) r.completions

let total_flow r = Rr_util.Kahan.sum (flows r)
