(* Starvation-hybrid kernel: SRPT for "fresh" jobs, absolute FCFS
   priority for "starved" ones.  See hybrid_engine.mli.

   A job's starvation instant [starve = arrival + theta * size]
   ({!Policy_class.starve_time}) is fixed at admission, so the priority
   order is piecewise-static: between promotion instants the served set
   is the top-m under a two-tier static order (starved jobs by (arrival,
   id), then fresh jobs by (remaining, id), with remaining frozen while
   waiting).  The kernel therefore runs like a priority-index engine —
   <= m running slots plus binary heaps for the waiting jobs — with one
   extra event source: a promotion heap keyed by starvation instants.
   Promotions of *waiting* fresh jobs can preempt; promotions of
   *running* fresh jobs only improve their rank, but the mirror policy
   still re-evaluates at every starvation instant (its horizon is the
   minimum over all fresh jobs), so the kernel keeps those no-op events
   too and the two event sequences — hence the floats — coincide
   exactly.

   Waiting heaps hold job ids only; the per-id record carries the
   authoritative fields.  Entries go stale when a job is seated,
   promoted, or completed; stale tops are lazily popped (a job re-enters
   a heap with a key no larger than its old entries, so the live entry
   always surfaces first).  The records are found by id in an int-keyed
   open-addressing table sized by the alive count: a lookup is an index
   mask and a short probe, and a missing id answers the [vacant]
   sentinel, so no lookup hashes or allocates. *)

module Heap = Rr_util.Heap

(* [where] tags *)
let w_running = 0

let w_starved = 1

let w_fresh = 2

(* Per-job floats in an all-float (flat) record: the per-event
   [remaining] write of a running job is then a plain unboxed store —
   in a record that also held [hid] and [where] it would box a fresh
   float.  A completed job's record goes onto the state's free list and
   is refilled by a later admission (no heap entry holds a record, only
   ids, and a stale id no longer finds one), so in steady state an
   admission allocates nothing. *)
type hfl = {
  mutable arrival : float;
  mutable size : float;
  mutable starve : float;
  mutable remaining : float;
}

type hjob = { mutable hid : int; (* -1 marks a vacant slot *) mutable where : int; f : hfl }

type state = {
  theta : float;
  machines : int;
  speed : float;
  (* Every alive job by id: linear probing from [id land mask] over an
     array whose length is a power of two, at most half full, with
     [vacant] in the empty slots.  Removal shifts the rest of the probe
     run back, so there are no tombstones.  Ids numbered in arrival
     order — a live engine's, a generated instance's — fill consecutive
     slots; any other numbering costs probes, not answers.  The table
     grows with the alive high-water mark, not with the range of ids a
     long-lived engine hands out. *)
  mutable table : hjob array;
  mutable count : int;
  vacant : hjob;  (* the empty-slot marker *)
  slots : hjob array;  (* running set, <= machines occupied entries *)
  starved : Heap.Scalar.t;  (* waiting starved: key = arrival, val = id *)
  fresh : Heap.Scalar.t;  (* waiting fresh: key = remaining at push, val = id *)
  promo : Heap.Scalar.t;  (* pending promotions: key = starve, val = id *)
  free : hjob Rr_util.Vec.t;  (* completed jobs' records, refilled by [admit] *)
  (* Ids of the newcomers within [Clock.threshold] admitted since the
     last settle: one that [refresh] left waiting (a starved incumbent
     outranks any fresh job) is complete at the next event, as the
     general loop retires it, and [settle] retires it there. *)
  tiny : int Rr_util.Vec.t;
  clk : Clock.t;
}

let table_slots = 16

(* In a closed run the three priority heaps come from the per-domain
   arena, so back-to-back runs reuse their capacity; a live engine passes
   no arena and owns fresh heaps. *)
let create ~clk ~scratch ~machines ~speed ~theta =
  let vacant =
    { hid = -1; where = w_running; f = { arrival = 0.; size = 0.; starve = 0.; remaining = 0. } }
  in
  {
    theta;
    machines;
    speed;
    table = Array.make table_slots vacant;
    count = 0;
    vacant;
    slots = Array.make machines vacant;
    starved = Arena.scalar_of scratch;
    fresh = Arena.scalar_of scratch;
    promo = Arena.scalar_of scratch;
    free = Rr_util.Vec.create ();
    tiny = Rr_util.Vec.create ();
    clk;
  }

let alive st = st.count

(* The record of alive job [id], or [vacant] (hid -1, [where] =
   [w_running]) when no such job is alive: the probe stops at either. *)
let find st id =
  let t = st.table in
  let mask = Array.length t - 1 in
  let i = ref (id land mask) in
  while
    let hid = (Array.unsafe_get t !i).hid in
    hid <> id && hid >= 0
  do
    i := (!i + 1) land mask
  done;
  Array.unsafe_get t !i

let place t (h : hjob) =
  let mask = Array.length t - 1 in
  let i = ref (h.hid land mask) in
  while (Array.unsafe_get t !i).hid >= 0 do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set t !i h

let insert st (h : hjob) =
  if 2 * (st.count + 1) > Array.length st.table then begin
    let grown = Array.make (2 * Array.length st.table) st.vacant in
    Array.iter (fun (g : hjob) -> if g.hid >= 0 then place grown g) st.table;
    st.table <- grown
  end;
  place st.table h;
  st.count <- st.count + 1

(* Remove alive job [id]: empty its slot, then walk the rest of the
   probe run and move back every entry whose home slot does not lie
   cyclically in (hole, entry] — the one lookups would no longer reach
   across the hole. *)
let remove st id =
  let t = st.table in
  let mask = Array.length t - 1 in
  let hole = ref (id land mask) in
  while (Array.unsafe_get t !hole).hid <> id do
    hole := (!hole + 1) land mask
  done;
  let j = ref ((!hole + 1) land mask) in
  while (Array.unsafe_get t !j).hid >= 0 do
    let i = !hole and jj = !j in
    let home = (Array.unsafe_get t jj).hid land mask in
    if (if i <= jj then home <= i || home > jj else home <= i && home > jj) then begin
      Array.unsafe_set t i (Array.unsafe_get t jj);
      hole := jj
    end;
    j := (jj + 1) land mask
  done;
  Array.unsafe_set t !hole st.vacant;
  st.count <- st.count - 1

let admit st id =
  let n = Rr_util.Vec.length st.free in
  let h =
    if n = 0 then
      { hid = id; where = w_fresh; f = { arrival = 0.; size = 0.; starve = 0.; remaining = 0. } }
    else begin
      let h = Rr_util.Vec.get st.free (n - 1) in
      Rr_util.Vec.swap_remove st.free (n - 1);
      h.hid <- id;
      h.where <- w_fresh;
      h
    end
  in
  let f = h.f and clk = st.clk in
  f.arrival <- clk.arrival;
  f.size <- clk.size;
  f.starve <- Policy_class.starve_time ~theta:st.theta ~arrival:clk.arrival ~size:clk.size;
  f.remaining <- clk.size;
  if clk.size <= Clock.threshold clk.size then Rr_util.Vec.push st.tiny id;
  insert st h;
  Heap.Scalar.add st.fresh ~key:h.f.remaining h.hid;
  Heap.Scalar.add st.promo ~key:h.f.starve h.hid

(* Strict two-tier order at [st.clk.now]: starved (arrival, id) before
   fresh (remaining, id) — the mirror policy's comparator. *)
let beats st (a : hjob) (b : hjob) =
  let now = st.clk.now in
  let sa = now >= a.f.starve and sb = now >= b.f.starve in
  match (sa, sb) with
  | true, false -> true
  | false, true -> false
  | true, true -> a.f.arrival < b.f.arrival || (a.f.arrival = b.f.arrival && a.hid < b.hid)
  | false, false ->
      a.f.remaining < b.f.remaining || (a.f.remaining = b.f.remaining && a.hid < b.hid)

(* Pop stale entries off [heap] until its top is a job alive in tier
   [which] ([w_starved] or [w_fresh]; [vacant] is tagged [w_running], so
   an id no longer alive never matches). *)
let drain_stale st heap which =
  while Heap.Scalar.length heap > 0 && (find st (Heap.Scalar.min_val_exn heap)).where <> which do
    ignore (Heap.Scalar.pop_exn heap)
  done

(* Best waiting job, starved tier first; [vacant] when all wait heaps are
   (effectively) empty. *)
let best_waiting st =
  drain_stale st st.starved w_starved;
  if Heap.Scalar.length st.starved > 0 then find st (Heap.Scalar.min_val_exn st.starved)
  else begin
    drain_stale st st.fresh w_fresh;
    if Heap.Scalar.length st.fresh > 0 then find st (Heap.Scalar.min_val_exn st.fresh)
    else st.vacant
  end

let seat st s (h : hjob) =
  (* Pop the live heap entry (it is the top of its heap by
     construction: [best_waiting] drained the stale prefix). *)
  (match h.where with
  | w when w = w_starved -> ignore (Heap.Scalar.pop_exn st.starved)
  | _ -> ignore (Heap.Scalar.pop_exn st.fresh));
  h.where <- w_running;
  st.slots.(s) <- h

let unseat st s =
  let h = st.slots.(s) in
  if h.hid >= 0 then begin
    if st.clk.now >= h.f.starve then begin
      h.where <- w_starved;
      Heap.Scalar.add st.starved ~key:h.f.arrival h.hid
    end
    else begin
      h.where <- w_fresh;
      Heap.Scalar.add st.fresh ~key:h.f.remaining h.hid
    end;
    st.slots.(s) <- st.vacant
  end

(* Mirror of one [allocate] call at [st.clk.now]: process due
   promotions, then restore the running set to the top-m of the current
   order, then recompute the horizon (minimum starvation instant over
   still-fresh jobs). *)
let refresh st =
  let now = st.clk.now in
  while Heap.Scalar.length st.promo > 0 && Heap.Scalar.min_key_exn st.promo <= now do
    let h = find st (Heap.Scalar.pop_exn st.promo) in
    (* A waiting job crossed its threshold: move it to the starved tier
       (its old fresh-heap entry goes stale).  A running job's rank only
       improves in place; a completed one is gone. *)
    if h.where = w_fresh then begin
      h.where <- w_starved;
      Heap.Scalar.add st.starved ~key:h.f.arrival h.hid
    end
  done;
  (* Fill free slots best-first. *)
  for s = 0 to st.machines - 1 do
    if st.slots.(s).hid < 0 then begin
      let h = best_waiting st in
      if h.hid >= 0 then seat st s h
    end
  done;
  (* Preempt while some waiting job outranks the weakest incumbent. *)
  let continue = ref true in
  while !continue do
    let w = best_waiting st in
    if w.hid < 0 then continue := false
    else begin
      let weakest = ref (-1) in
      for s = 0 to st.machines - 1 do
        let h = st.slots.(s) in
        if h.hid >= 0 then
          match !weakest with
          | -1 -> weakest := s
          | ws ->
              let hw = st.slots.(ws) in
              if hw.hid < 0 || beats st hw h then weakest := s
      done;
      if !weakest < 0 then continue := false
      else begin
        let ws = !weakest in
        let hw = st.slots.(ws) in
        if hw.hid >= 0 && beats st w hw then begin
          unseat st ws;
          seat st ws w
        end
        else continue := false
      end
    end
  done;
  (* Undrained promotion keys are strictly in the future and belong to
     still-fresh jobs — except entries of jobs that completed fresh,
     which the mirror policy no longer sees: lazily drop those. *)
  while
    Heap.Scalar.length st.promo > 0 && (find st (Heap.Scalar.min_val_exn st.promo)).hid < 0
  do
    ignore (Heap.Scalar.pop_exn st.promo)
  done;
  st.clk.horizon <-
    (if Heap.Scalar.length st.promo > 0 then Heap.Scalar.min_key_exn st.promo
     else Float.infinity)

(* Earliest internal event into [st.clk.t_next]: a running job's
   completion or the horizon. *)
let next_internal st =
  let now = st.clk.now in
  let t = ref st.clk.horizon in
  for s = 0 to st.machines - 1 do
    let h = st.slots.(s) in
    if h.hid >= 0 then begin
      let c = now +. (h.f.remaining /. st.speed) in
      if c < !t then t := c
    end
  done;
  st.clk.t_next <- !t

let advance st =
  let adv = st.speed *. st.clk.dt in
  for s = 0 to st.machines - 1 do
    let h = st.slots.(s) in
    if h.hid >= 0 then h.f.remaining <- h.f.remaining -. adv
  done

let retire st out (h : hjob) =
  Clock.retire out ~id:h.hid ~arrival:h.f.arrival ~flow:(st.clk.now -. h.f.arrival);
  remove st h.hid;
  Rr_util.Vec.push st.free h

(* Retire the running jobs within the completion threshold, then the
   small newcomers still waiting (their heap entries go stale). *)
let settle st out =
  for s = 0 to st.machines - 1 do
    let h = st.slots.(s) in
    if h.hid >= 0 && h.f.remaining <= Clock.threshold h.f.size then begin
      retire st out h;
      st.slots.(s) <- st.vacant
    end
  done;
  if not (Rr_util.Vec.is_empty st.tiny) then begin
    Rr_util.Vec.iter
      (fun id ->
        let h = find st id in
        if h.hid >= 0 && h.where <> w_running then retire st out h)
      st.tiny;
    Rr_util.Vec.clear st.tiny
  end

let iter_alive st f =
  Array.iter
    (fun (h : hjob) ->
      if h.hid >= 0 then f h.hid h.f.arrival (if h.where = w_running then 1. else 0.))
    st.table
