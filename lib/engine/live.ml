(* Incremental, submit-while-running scheduling core.  See live.mli for
   the user-facing contract.

   The live driver of the class kernels ({!Kernel}); the closed driver is
   [Simulator.run_class].  It adds a pending queue of submitted jobs and
   a horizon: [step] processes the next event if it falls at or before
   the horizon, and otherwise only moves the clock.  The kernel is
   advanced at events only, by the whole interval since the last one,
   and its decision is refreshed once per event, never at a horizon
   split — so however a caller splits time, the kernel performs the same
   float operations on the same jobs as the closed driver (see [step]).

   The per-job path allocates nothing of its own: pending jobs wait in a
   ring of two flat float arrays, the kernel logs each completion in flat
   arrays ({!Clock.log}), and [record] folds the log straight into flat
   float stores (Kahan power sum, Welford moments, running max, three P²
   sketches) — no closure is called and no float boxed per job unless a
   caller attached a sink.

   Everything in [state] is plain mutable data — heaps and rings of
   float arrays, records, an option-linked group list — with no
   closures, so a whole engine snapshots with [Marshal] (which handles
   the SETF prev/next cycles via its sharing machinery).  The completion
   sink is the one closure a live engine carries; it lives outside
   [state] and is re-attached on restore. *)

type spec = Classified of Policy_class.t

let spec_name (Classified klass) = Policy_class.engine_name klass

(* The engine's own floats, all-float (flat) so their updates never box:
   the clock (which a horizon split moves past the kernel's last event),
   the submission watermark, and two completion aggregates. *)
type fl = {
  mutable now : float;
  mutable last_arrival : float;
  mutable makespan : float;
  mutable max_flow : float;
}

type state = {
  spec : spec;
  machines : int;
  speed : float;
  k : int;
  max_events : int;
  kernel : Kernel.t;
  (* True when the kernel's decision must be refreshed before the next
     event scan: after every processed event or admission, never after a
     pure horizon split. *)
  mutable rates_dirty : bool;
  (* Submitted jobs not yet admitted, in submission = (arrival, id)
     order (arrivals are validated non-decreasing at [submit]): a ring of
     [pending] jobs from slot [head] of two flat float arrays whose
     length is a power of two.  The oldest pending job's id is
     [submitted - pending]. *)
  mutable arrivals : float array;
  mutable sizes : float array;
  mutable head : int;
  mutable pending : int;
  fl : fl;
  mutable submitted : int;
  mutable completed : int;
  mutable events : int;
  mutable max_alive : int;
  (* O(1)-memory live metrics: the same accumulators Run.measure fuses —
     Kahan power sum for the Lk norm, Welford moments, running max — plus
     three P-squared sketches for the percentiles. *)
  ps : Rr_util.Kahan.t;
  moments : Rr_util.Welford.t;
  p50 : Rr_util.P2.t;
  p90 : Rr_util.P2.t;
  p99 : Rr_util.P2.t;
}

(* The per-job data of a caller that wants it; [no_sink] (the default)
   is never called. *)
type t = { st : state; mutable sink : Simulator.sink }

type stats = {
  submitted : int;
  completed : int;
  alive : int;
  pending : int;
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

(* Fold the [gone] completions the kernel logged at this event, in
   retirement order, and forward each to the sink if one is attached. *)
let record t gone =
  let st = t.st in
  let log = Kernel.log st.kernel in
  let now = (Kernel.clock st.kernel).now in
  let call_sink = t.sink != no_sink in
  for i = 0 to gone - 1 do
    let flow = Array.unsafe_get log.flows i in
    st.completed <- st.completed + 1;
    st.fl.makespan <- now;
    Rr_util.Kahan.add st.ps (Rr_util.Floatx.powi flow st.k);
    Rr_util.Welford.add st.moments flow;
    if flow > st.fl.max_flow then st.fl.max_flow <- flow;
    Rr_util.P2.add_at st.p50 log.flows i;
    Rr_util.P2.add_at st.p90 log.flows i;
    Rr_util.P2.add_at st.p99 log.flows i;
    if call_sink then
      t.sink ~id:(Array.unsafe_get log.ids i) ~arrival:(Array.unsafe_get log.arrivals i) ~flow
  done

let attach st sink = { st; sink }

(* The pending ring's initial length: small, so an idle engine's
   snapshot stays small; [reserve] doubles it as submissions need. *)
let ring_slots = 16

(* A live engine is long-lived by design — its kernel owns its heaps
   outright rather than borrowing from the per-domain {!Arena}, whose
   components must not outlive a single borrow. *)
let create ?(machines = 1) ?(speed = 1.) ?(k = 2) ?(max_events = max_int) ?(sink = no_sink)
    (Classified klass as spec) =
  if machines < 1 then invalid_arg "Live.create: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Live.create: speed must be finite and positive";
  if k < 1 then invalid_arg "Live.create: k must be >= 1";
  if max_events < 1 then invalid_arg "Live.create: max_events must be >= 1";
  attach
    {
      spec;
      machines;
      speed;
      k;
      max_events;
      kernel = Kernel.create ~scratch:None ~machines ~speed klass;
      rates_dirty = true;
      arrivals = Array.make ring_slots 0.;
      sizes = Array.make ring_slots 0.;
      head = 0;
      pending = 0;
      fl = { now = 0.; last_arrival = 0.; makespan = 0.; max_flow = 0. };
      submitted = 0;
      completed = 0;
      events = 0;
      max_alive = 0;
      ps = Rr_util.Kahan.create ();
      moments = Rr_util.Welford.create ();
      p50 = Rr_util.P2.create ~p:0.5 ();
      p90 = Rr_util.P2.create ~p:0.9 ();
      p99 = Rr_util.P2.create ~p:0.99 ();
    }
    sink

let set_sink t sink = t.sink <- sink

(* ------------------------------------------------------------------ *)
(* Submission                                                          *)
(* ------------------------------------------------------------------ *)

(* Make room for [extra] more pending jobs: double the ring until they
   fit, copying the pending jobs to the front of the new arrays in
   order. *)
let reserve (st : state) extra =
  let cap = Array.length st.arrivals in
  if st.pending + extra > cap then begin
    let cap' = ref (2 * cap) in
    while st.pending + extra > !cap' do
      cap' := 2 * !cap'
    done;
    let arrivals = Array.make !cap' 0. and sizes = Array.make !cap' 0. in
    for j = 0 to st.pending - 1 do
      let i = (st.head + j) land (cap - 1) in
      arrivals.(j) <- st.arrivals.(i);
      sizes.(j) <- st.sizes.(i)
    done;
    st.arrivals <- arrivals;
    st.sizes <- sizes;
    st.head <- 0
  end

(* The ring slot of the [j]-th pending job, counted from the oldest. *)
let[@inline] slot (st : state) j = (st.head + j) land (Array.length st.arrivals - 1)

let submit t ~arrival ~size =
  let st = t.st in
  if not (Rr_util.Floatx.is_finite_nonneg arrival) then
    invalid_arg "Live.submit: arrival must be a finite non-negative float";
  if not (Float.is_finite size && size > 0.) then
    invalid_arg "Live.submit: size must be finite and positive";
  if arrival < st.fl.last_arrival then
    invalid_arg
      (Printf.sprintf
         "Live.submit: arrivals must be non-decreasing (%g after %g)" arrival
         st.fl.last_arrival);
  if arrival < st.fl.now then
    invalid_arg
      (Printf.sprintf "Live.submit: arrival %g is in the simulated past (now = %g)" arrival
         st.fl.now);
  reserve st 1;
  let i = slot st st.pending in
  st.arrivals.(i) <- arrival;
  st.sizes.(i) <- size;
  st.pending <- st.pending + 1;
  let id = st.submitted in
  st.submitted <- id + 1;
  st.fl.last_arrival <- arrival;
  id

(* Bulk submission: exactly the pending-ring pushes [submit] would
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
  let last = ref st.fl.last_arrival in
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
    if arrival < st.fl.now then
      invalid_arg
        (Printf.sprintf "Live.submit: arrival %g is in the simulated past (now = %g)" arrival
           st.fl.now);
    last := arrival
  done;
  reserve st len;
  for j = 0 to len - 1 do
    let i = slot st (st.pending + j) in
    Array.unsafe_set st.arrivals i (Array.unsafe_get arrivals (off + j));
    Array.unsafe_set st.sizes i (Array.unsafe_get sizes (off + j))
  done;
  st.pending <- st.pending + len;
  let first = st.submitted in
  st.submitted <- first + len;
  if len > 0 then st.fl.last_arrival <- arrivals.(off + len - 1);
  first

(* ------------------------------------------------------------------ *)
(* The live driver                                                     *)
(* ------------------------------------------------------------------ *)

let[@inline] next_pending (st : state) =
  if st.pending = 0 then Float.infinity else Array.unsafe_get st.arrivals st.head

(* Count the event about to be processed, or refuse it when the budget
   is spent.  The check comes first, so a refused step leaves [events]
   at the limit and every other counter where the last event left it. *)
let bump_events (st : state) =
  if st.events >= st.max_events then
    raise (Simulator.Event_limit_exceeded { limit = st.max_events; now = st.fl.now });
  st.events <- st.events + 1

(* Admit every pending job released at or before the kernel's instant. *)
let admit_upto (st : state) =
  let clk = Kernel.clock st.kernel in
  while next_pending st <= clk.now do
    let h = st.head in
    clk.arrival <- Array.unsafe_get st.arrivals h;
    clk.size <- Array.unsafe_get st.sizes h;
    let id = st.submitted - st.pending in
    st.head <- slot st 1;
    st.pending <- st.pending - 1;
    Kernel.admit st.kernel id;
    st.rates_dirty <- true
  done;
  let alive = Kernel.alive st.kernel in
  if alive > st.max_alive then st.max_alive <- alive

(* Process the next event if it falls at or before [target], or move the
   clock to [target]; [true] asks for another step.

   The kernel's clock stays at the last event: a horizon split moves
   [fl.now] and nothing else, and the next event advances the kernel by
   the whole interval since the last one, in one step.  The decision is
   refreshed once per event, just before the first scan after it.  Jobs
   submitted at exactly the last event's instant (a client that advanced
   to it, then submitted) are admitted before that refresh, as the
   closed driver would have admitted them at the event; and a step that
   processes an event at [target] itself stops there, leaving the
   refresh to the next step so such jobs can still join it.  Either way
   the kernel sees the closed driver's operations in the closed driver's
   order. *)
let step t ~target =
  let st = t.st in
  let k = st.kernel in
  let clk = Kernel.clock k in
  if Kernel.alive k = 0 then begin
    let a = next_pending st in
    if a <= target && st.pending > 0 then begin
      (* Idle period: jump straight to the next arrival. *)
      bump_events st;
      clk.now <- a;
      st.fl.now <- a;
      admit_upto st;
      a < target
    end
    else begin
      (* Idle through the whole horizon.  An infinite horizon (drain)
         leaves [now] at the makespan instead of consuming it. *)
      if Float.is_finite target && target > st.fl.now then st.fl.now <- target;
      false
    end
  end
  else begin
    admit_upto st;
    Kernel.scan k ~refresh:st.rates_dirty;
    st.rates_dirty <- false;
    let a = next_pending st in
    if a < clk.t_next then clk.t_next <- a;
    if clk.t_next > target then begin
      st.fl.now <- target;
      false
    end
    else begin
      if not (Float.is_finite clk.t_next) then
        raise
          (Simulator.Invalid_allocation
             "alive jobs receive no service and no arrival or horizon is pending");
      bump_events st;
      clk.dt <- clk.t_next -. clk.now;
      let gone = Kernel.finish k in
      if gone > 0 then record t gone;
      st.fl.now <- clk.now;
      st.rates_dirty <- true;
      admit_upto st;
      clk.now < target
    end
  end

let advance_until t ~target =
  while step t ~target do
    ()
  done

let advance t target =
  if Float.is_nan target then invalid_arg "Live.advance: time must not be NaN";
  if Float.is_finite target && target > t.st.fl.now then advance_until t ~target
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
    alive = Kernel.alive st.kernel;
    pending = st.pending;
    now = st.fl.now;
    events = st.events;
    makespan = st.fl.makespan;
    max_alive = st.max_alive;
    mean_flow = Rr_util.Welford.mean st.moments;
    max_flow = st.fl.max_flow;
    power_sum;
    norm = (if n = 0 then 0. else power_sum ** (1. /. Float.of_int st.k));
    p50 = Rr_util.P2.value st.p50;
    p90 = Rr_util.P2.value st.p90;
    p99 = Rr_util.P2.value st.p99;
  }

let now t = t.st.fl.now
let spec t = t.st.spec
let machines t = t.st.machines
let speed t = t.st.speed
let k t = t.st.k

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                  *)
(* ------------------------------------------------------------------ *)

(* [state] is closure-free, so Marshal round-trips it; the default flags
   keep sharing on, which is what resolves the SETF group list's
   prev/next cycles and keeps the kernel's clock shared between the
   kernel and its states.  A short magic header versions the format so a
   junk file fails loudly instead of segfaulting the unmarshaller.  The
   version names the memory layout of [state] and of the kernel states
   it embeds: any change to either must bump it, or an older build's
   snapshot would be unmarshalled into the new layout.  v5: the pending
   ring and the flat P² and Welford stores.  v6: MLFQ's level buckets,
   LAPS's served window and the hybrid's open-addressing job table.  v7:
   the kernel's completion log, the free lists of recycled job records
   and SETF groups (whose links became a sentinel instead of options),
   and the index kernel's staged insert and born-complete buffer. *)

let snapshot_magic = "rr-live-snapshot-v7\n"

let to_bytes t =
  Bytes.cat (Bytes.of_string snapshot_magic) (Marshal.to_bytes t.st [])

let of_bytes ?(sink = no_sink) b =
  let m = String.length snapshot_magic in
  if
    Bytes.length b < m
    || not (String.equal (Bytes.sub_string b 0 m) snapshot_magic)
  then failwith "Live.of_bytes: not a live-engine snapshot";
  let st : state = Marshal.from_bytes b m in
  attach st sink

let save t path =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc (to_bytes t))

let load ?(sink = no_sink) path =
  In_channel.with_open_bin path (fun ic ->
      match In_channel.input_all ic with
      | s -> of_bytes ~sink (Bytes.of_string s))
