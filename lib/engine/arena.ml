(* Per-domain scratch arenas: reusable typed buffers the engines borrow
   for one run and hand back, so back-to-back simulations on one domain
   (the shape of every sweep, batch chunk, and benchmark loop) stop
   re-allocating their heap storage and trace vectors from cold.  See arena.mli for the contract.

   One arena lives in domain-local storage per domain.  [borrow] hands
   out exclusive access guarded by a busy flag: a re-entrant simulation
   (a sink that itself simulates, on the same domain) finds the arena
   taken and gets [None], making every accessor fall back to a fresh
   allocation — correctness never depends on the arena, only steady-state
   allocation rate does.

   Components are reused cursor-style: each accessor returns the next
   pooled component of its kind (growing the pool on first use) and
   [release] just resets the cursors, so the components — and crucially
   their grown capacities — survive to the next run.  All heavy storage
   is unboxed ([float array]/[int array] inside the scalar heaps); the
   per-kind pools themselves are a handful of words. *)

module Heap = Rr_util.Heap
module Vec = Rr_util.Vec

type t = {
  mutable busy : bool;
  mutable s1 : Heap.Scalar.t array;
  mutable s1_used : int;
  mutable s2 : Heap.Scalar2.t array;
  mutable s2_used : int;
  mutable s3 : Heap.Scalar3.t array;
  mutable s3_used : int;
  mutable segs : Trace.segment Vec.t array;
  mutable segs_used : int;
}

let make () =
  {
    busy = false;
    s1 = [||];
    s1_used = 0;
    s2 = [||];
    s2_used = 0;
    s3 = [||];
    s3_used = 0;
    segs = [||];
    segs_used = 0;
  }

let key = Domain.DLS.new_key make

let borrow () =
  let a = Domain.DLS.get key in
  if a.busy then None
  else begin
    a.busy <- true;
    Some a
  end

let release = function
  | None -> ()
  | Some a ->
      a.s1_used <- 0;
      a.s2_used <- 0;
      a.s3_used <- 0;
      a.segs_used <- 0;
      a.busy <- false

(* Cursor-style checkout of pooled components: the nth request of a kind
   within one borrow always returns the same nth component, so capacities
   converge to the per-run high-water mark after the first run. *)

let scalar () = Heap.Scalar.create ()

let scalar_of = function
  | None -> Heap.Scalar.create ()
  | Some a ->
      if a.s1_used = Array.length a.s1 then a.s1 <- Array.append a.s1 [| scalar () |];
      let h = a.s1.(a.s1_used) in
      a.s1_used <- a.s1_used + 1;
      Heap.Scalar.clear h;
      h

let scalar2_of = function
  | None -> Heap.Scalar2.create ()
  | Some a ->
      if a.s2_used = Array.length a.s2 then
        a.s2 <- Array.append a.s2 [| Heap.Scalar2.create () |];
      let h = a.s2.(a.s2_used) in
      a.s2_used <- a.s2_used + 1;
      Heap.Scalar2.clear h;
      h

let scalar3_of = function
  | None -> Heap.Scalar3.create ()
  | Some a ->
      if a.s3_used = Array.length a.s3 then
        a.s3 <- Array.append a.s3 [| Heap.Scalar3.create () |];
      let h = a.s3.(a.s3_used) in
      a.s3_used <- a.s3_used + 1;
      Heap.Scalar3.clear h;
      h

let segments_of = function
  | None -> Vec.create ()
  | Some a ->
      if a.segs_used = Array.length a.segs then a.segs <- Array.append a.segs [| Vec.create () |];
      let v = a.segs.(a.segs_used) in
      a.segs_used <- a.segs_used + 1;
      Vec.clear v;
      v
