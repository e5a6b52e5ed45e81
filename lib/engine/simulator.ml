exception Invalid_allocation of string

exception Event_limit_exceeded of { limit : int; now : float }

let () =
  Printexc.register_printer (function
    | Event_limit_exceeded { limit; now } ->
        Some
          (Printf.sprintf
             "Rr_engine.Simulator.Event_limit_exceeded (budget %d exhausted at t = %g)" limit now)
    | _ -> None)

type sink = Clock.sink

(* ------------------------------------------------------------------ *)
(* Arrival sources                                                     *)
(* ------------------------------------------------------------------ *)

(* Both drivers consume arrivals through this one-job-lookahead interface:
   the sorted-array path of {!run}/{!run_class} and the lazy
   generators of {!Rr_workload} [Instance.Stream] implement the same pull
   function, so "how many jobs exist" is independent of the event loop.
   Validity and monotonicity are enforced at the boundary — a source that
   emits a job released before its predecessor is a bug in the producer,
   caught here rather than as silent time travel inside the loop.

   The lookahead is stored {e unboxed}: the head job lives as an int id
   plus a flat all-float cursor record, not as a [Job.t option].  Raw
   producers ({!of_raw}) write the cursor fields directly and never
   construct a [Job.t] at all, which is what lets the closed driver's
   streaming path run at ~0 words per job; the boxed [peek]/[next] view
   is memoized on top for the general loop, which wants whole jobs. *)
module Source = struct
  type cursor = { mutable arrival : float; mutable size : float }
  (* All-float record: flat representation, so field writes never box. *)

  type watermark = { mutable last : float }
  (* The latest arrival handed out: a one-float record, flat like the
     cursor, so the per-job update is an unboxed store (as a field of
     [t], a mixed record, every write would box a fresh float). *)

  type t = {
    refill : t -> int;
        (* Write the next job into [cur] and return its id, or -1 when
           exhausted (then never called again).  May stash a [Job.t] in
           [head_job] when it has one anyway. *)
    cur : cursor;
    mutable head_id : int;  (* -1 = no job buffered *)
    mutable head_job : Job.t option;  (* boxed memo of the buffered job *)
    last_arrival : watermark;
    mutable drained : bool;
  }

  let make refill =
    {
      refill;
      cur = { arrival = 0.; size = 0. };
      head_id = -1;
      head_job = None;
      last_arrival = { last = Float.neg_infinity };
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
      if t.cur.arrival < t.last_arrival.last then
        invalid_arg
          (Printf.sprintf
             "Simulator.Source: arrivals must be non-decreasing (job #%d at %g after %g)" id
             t.cur.arrival t.last_arrival.last);
      t.last_arrival.last <- t.cur.arrival;
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

let done_threshold (l : live) = Clock.threshold l.job.size

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
         the equal-share kernel ({!Kernel}), where rates are a function of
         the count alone. *)
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
      (* [dt = 0] is a zero-length event: a completion closer to [now]
         than half an ulp of the clock (a job of size ~1e-9 at t ~ 1e7)
         rounds onto [now].  It runs like any other, as in both class
         drivers; a job stuck at [now] still stops at [max_events]. *)
      assert (dt >= 0.);
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
(* The closed driver: one loop over every class kernel                 *)
(* ------------------------------------------------------------------ *)

(* The flow folds [Run.measure_stream] reports: a Kahan-compensated
   power sum of [Floatx.powi flow k] and Welford moments, in completion
   order — the per-element updates of [Rr_metrics.Sink.power_sum] and
   [Sink.moments], so a run folded here and one pushed through those
   sinks produce the same floats. *)
type folds = { k : int; power_sum : Rr_util.Kahan.t; moments : Rr_util.Welford.t }

let folds ~k =
  if k < 1 then invalid_arg "Simulator.folds: k must be >= 1";
  { k; power_sum = Rr_util.Kahan.create (); moments = Rr_util.Welford.create () }

let[@inline] fold f flow =
  if flow < 0. then invalid_arg "Sink.power_sum: negative flow time";
  Rr_util.Kahan.add f.power_sum (Rr_util.Floatx.powi flow f.k);
  Rr_util.Welford.add f.moments flow

let fold_sink f : sink = fun ~id:_ ~arrival:_ ~flow -> fold f flow

(* The general loop's event semantics over a {!Kernel}: refresh the
   decision once per event, take the earliest of the kernel's internal
   event and the next arrival (completion wins a tie), advance, settle,
   admit.  Nothing is built per event: the clock is the kernel's flat
   record, admission hands the source's raw cursor over through it (no
   [Job.t], no option, no boxed float), and the kernel logs its
   completions in flat arrays that this loop folds straight into the
   completion times, the [folds] and — only for a caller that passed
   one — the [sink], the one place a completion's floats are boxed. *)
let closed_core ~record_trace ~speed ~max_events ~machines klass ~(source : Source.t)
    ~(completions : float array) ~(folds : folds option) ~(sink : sink) =
  let scratch = Arena.borrow () in
  Fun.protect ~finally:(fun () -> Arena.release scratch) @@ fun () ->
  let k = Kernel.create ~scratch ~machines ~speed klass in
  let clk = Kernel.clock k and log = Kernel.log k in
  let alive = ref 0 and max_alive = ref 0 and completed = ref 0 and events = ref 0 in
  let record = Array.length completions > 0 and call_sink = sink != no_sink in
  let admit_upto () =
    while clk.next_arr <= clk.now do
      clk.arrival <- Source.head_arrival source;
      clk.size <- Source.head_size source;
      Kernel.admit k (Source.head_id source);
      incr alive;
      Source.advance source;
      clk.next_arr <- Source.next_arrival source
    done;
    if !alive > !max_alive then max_alive := !alive
  in
  let trace_arena : Trace.segment Rr_util.Vec.t = Arena.segments_of scratch in
  let push_trace () =
    let entries = Array.make !alive { Trace.job = -1; arrival = 0.; rate = 0. } in
    let next = ref 0 in
    Kernel.iter_alive k (fun job arrival rate ->
        entries.(!next) <- { Trace.job; arrival; rate };
        incr next);
    Rr_util.Vec.push trace_arena { Trace.t0 = clk.now; t1 = clk.t_next; alive = entries }
  in
  clk.now <- (if Source.has_more source then Source.head_arrival source else 0.);
  clk.next_arr <- Source.next_arrival source;
  admit_upto ();
  while !alive > 0 || Source.has_more source do
    incr events;
    if !events > max_events then
      raise (Event_limit_exceeded { limit = max_events; now = clk.now });
    if !alive = 0 then begin
      (* Idle period: jump straight to the next arrival. *)
      clk.now <- clk.next_arr;
      admit_upto ()
    end
    else begin
      Kernel.scan k ~refresh:true;
      if clk.next_arr < clk.t_next then clk.t_next <- clk.next_arr;
      if not (Float.is_finite clk.t_next) then
        raise
          (Invalid_allocation "alive jobs receive no service and no arrival or horizon is pending");
      clk.dt <- clk.t_next -. clk.now;
      (* [dt = 0] is a zero-length event: a newcomer whose size lies
         within [Clock.threshold] completes at its own arrival.  It runs
         like any other, as in [Live.step]; a kernel stuck at [now]
         still stops at [max_events]. *)
      assert (clk.dt >= 0.);
      if record_trace then push_trace ();
      let gone = Kernel.finish k in
      if gone > 0 then begin
        for i = 0 to gone - 1 do
          if record then completions.(Array.unsafe_get log.ids i) <- clk.now;
          (match folds with Some f -> fold f (Array.unsafe_get log.flows i) | None -> ());
          if call_sink then
            sink ~id:(Array.unsafe_get log.ids i) ~arrival:(Array.unsafe_get log.arrivals i)
              ~flow:(Array.unsafe_get log.flows i)
        done;
        alive := !alive - gone;
        completed := !completed + gone;
        clk.makespan <- clk.now
      end;
      admit_upto ()
    end
  done;
  ( {
      n = !completed;
      events = !events;
      machines;
      speed;
      makespan = clk.makespan;
      max_alive = !max_alive;
    },
    Rr_util.Vec.to_list trace_arena )

let run_class ?(record_trace = false) ?(speed = 1.) ?(max_events = 10_000_000) ?(sink = no_sink)
    ~machines klass jobs =
  let n = validate_jobs jobs in
  let jobs_arr = jobs_by_id jobs n in
  let order = release_order jobs n in
  let completions = Array.make n Float.nan in
  let summary, trace =
    closed_core ~record_trace ~speed ~max_events ~machines klass ~source:(Source.of_array order)
      ~completions ~folds:None ~sink
  in
  { jobs = jobs_arr; completions; trace; machines; speed; events = summary.events }

let run_class_stream ?(speed = 1.) ?(max_events = 10_000_000) ~machines ~sink klass fill =
  fst
    (closed_core ~record_trace:false ~speed ~max_events ~machines klass
       ~source:(Source.of_raw fill) ~completions:[||] ~folds:None ~sink)

let run_class_fold ?(speed = 1.) ?(max_events = 10_000_000) ~machines folds klass fill =
  fst
    (closed_core ~record_trace:false ~speed ~max_events ~machines klass
       ~source:(Source.of_raw fill) ~completions:[||] ~folds:(Some folds) ~sink:no_sink)

let run_equal_share_stream_raw ?speed ?max_events ~machines ~sink fill =
  run_class_stream ?speed ?max_events ~machines ~sink Policy_class.Equal_share fill

let flows r = Array.mapi (fun i c -> c -. r.jobs.(i).Job.arrival) r.completions

let total_flow r = Rr_util.Kahan.sum (flows r)
