(* Work-stealing domain pool.  See pool.mli for the user-facing contract.

   Batch execution: the batch is first cut into chunks of consecutive
   task indices (cost-aware, see chunk_offsets below); the chunk indices
   [0, n_chunks) are then split into one contiguous slice per
   participant, each held as a packed (lo, hi) pair inside a single
   atomic int (lo in the high bits, hi in the low 31).  A participant
   pops from the lo end of its own slice and steals from the hi end of
   other slices, so owner and thieves contend on one CAS and every
   transition linearises.  Slices only ever shrink, so a participant that
   completes a full pop-then-scan without finding work can retire: any
   chunk it did not see claimed is being executed synchronously inside
   another participant's loop.  The batch is over when every participant
   has retired, which the submitting caller awaits under the pool mutex —
   that lock handoff is also what makes the workers' writes to the result
   array visible to the caller.

   Chunking changes the unit of stealing, never the unit of work: inside
   a chunk the tasks run in index order, each with its own exception
   boundary, so result ordering, per-task PRNG seeding, and the failure
   index reported by Task_error are identical for every chunking. *)

exception Task_error of int * exn

let () =
  Printexc.register_printer (function
    | Task_error (i, e) ->
        Some (Printf.sprintf "Pool.Task_error (task %d: %s)" i (Printexc.to_string e))
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* Packed index ranges                                                 *)
(* ------------------------------------------------------------------ *)

let mask31 = (1 lsl 31) - 1
let pack ~lo ~hi = (lo lsl 31) lor hi
let unpack r = (r lsr 31, r land mask31)

let try_pop slice =
  let rec go () =
    let r = Atomic.get slice in
    let lo, hi = unpack r in
    if lo >= hi then None
    else if Atomic.compare_and_set slice r (pack ~lo:(lo + 1) ~hi) then Some lo
    else go ()
  in
  go ()

let try_steal slice =
  let rec go () =
    let r = Atomic.get slice in
    let lo, hi = unpack r in
    if lo >= hi then None
    else if Atomic.compare_and_set slice r (pack ~lo ~hi:(hi - 1)) then Some (hi - 1)
    else go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Pool and batch state                                                *)
(* ------------------------------------------------------------------ *)

type gc_delta = {
  participant : int;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

type batch = {
  run : int -> unit;  (* one task, by task index *)
  offsets : int array;  (* chunk j = task indices [offsets.(j), offsets.(j+1)) *)
  slices : int Atomic.t array;  (* of chunk indices *)
  stop : bool Atomic.t;
  failure : (int * exn) option Atomic.t;
  gc_deltas : gc_delta array;  (* slot p written only by participant p *)
  mutable unfinished : int;  (* participants still working; under the pool mutex *)
}

type t = {
  size : int;
  minor_heap_words : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  batch_done : Condition.t;
  mutable current : batch option;
  mutable generation : int;
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
  mutable busy : bool;
  mutable last_gc : gc_delta array;  (* deltas of the most recent batch *)
}

(* Keep the lowest-index failure so that single-fault batches report
   deterministically whichever domain hit the fault. *)
let record_failure b i e =
  let rec go () =
    match Atomic.get b.failure with
    | Some (j, _) when j <= i -> ()
    | cur -> if not (Atomic.compare_and_set b.failure cur (Some (i, e))) then go ()
  in
  go ();
  Atomic.set b.stop true

(* [Gc.quick_stat] reads only the calling domain's counters (no
   stop-the-world), so bracketing each participant's share of a batch
   with it yields honest per-domain numbers: how many words this domain
   allocated, how much it promoted to the shared major heap, and how
   often it collected while chewing its tasks.  [minor_words] comes from
   [Gc.minor_words] instead: quick_stat's copy is only updated at
   collection boundaries, so a slice that fits inside one minor-heap
   cycle would read as zero allocation. *)
let gc_bracket p f =
  let s0 = Gc.quick_stat () in
  let m0 = Gc.minor_words () in
  f ();
  let m1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  {
    participant = p;
    minor_words = m1 -. m0;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
  }

let work b p =
  let participants = Array.length b.slices in
  let claim () =
    if Atomic.get b.stop then None
    else
      match try_pop b.slices.(p) with
      | Some _ as s -> s
      | None ->
          let rec scan k =
            if k = participants then None
            else
              match try_steal b.slices.((p + k) mod participants) with
              | Some _ as s -> s
              | None -> scan (k + 1)
          in
          scan 1
  in
  (* Tasks of a chunk run in index order, each with its own exception
     boundary so the failure index is the task's, not the chunk's; a
     recorded failure abandons the rest of the chunk. *)
  let run_chunk j =
    let hi = b.offsets.(j + 1) in
    let i = ref b.offsets.(j) in
    while !i < hi && not (Atomic.get b.stop) do
      (try b.run !i with e -> record_failure b !i e);
      incr i
    done
  in
  let rec go () =
    match claim () with
    | None -> ()
    | Some j ->
        run_chunk j;
        go ()
  in
  go ()

(* Retire from the current batch; the last participant out wakes the
   submitter. *)
let retire pool b =
  Mutex.lock pool.mutex;
  b.unfinished <- b.unfinished - 1;
  if b.unfinished = 0 then Condition.broadcast pool.batch_done;
  Mutex.unlock pool.mutex

let rec worker_loop pool p seen =
  Mutex.lock pool.mutex;
  while (not pool.stopping) && pool.generation = seen do
    Condition.wait pool.work_ready pool.mutex
  done;
  if pool.stopping then Mutex.unlock pool.mutex
  else begin
    let gen = pool.generation in
    let b = match pool.current with Some b -> b | None -> assert false in
    Mutex.unlock pool.mutex;
    b.gc_deltas.(p) <- gc_bracket p (fun () -> work b p);
    retire pool b;
    worker_loop pool p gen
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* Default worker minor heap: 4M words (32 MB).  The B4 audit puts a
   streamed simulation task at ~10 words/job steady state but tens of
   words/job for the materialized and dense engines, so a 100k-job task
   allocates on the order of 1-10M minor words; at the runtime's default
   256k-word minor heap that is tens of collections per task, each a
   rendezvous risk with sibling domains and a promotion pump into the
   shared major heap.  4M words keeps a typical task to a couple of
   collections while costing a bounded 32 MB per worker domain. *)
let default_minor_heap_words = 1 lsl 22

let create ?(minor_heap_words = default_minor_heap_words) ~domains () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  if minor_heap_words < 1 lsl 12 then
    invalid_arg "Pool.create: minor_heap_words must be at least 4096";
  let pool =
    {
      size = domains;
      minor_heap_words;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      current = None;
      generation = 0;
      stopping = false;
      workers = [];
      busy = false;
      last_gc = [||];
    }
  in
  (* Give this pool's domains contention-free cache striping: at least
     4 shards per domain (grow-only, so two pools never fight). *)
  Cache.reserve_shards ~domains;
  pool.workers <-
    List.init (domains - 1) (fun i ->
        Domain.spawn (fun () ->
            (* Per-domain GC tuning: Gc.set applies to the calling domain,
               so each worker sizes its own minor heap.  The submitting
               domain (participant 0) is deliberately left alone — its
               minor heap belongs to the surrounding program, not to this
               pool. *)
            Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words };
            worker_loop pool (i + 1) 0));
  pool

let size pool = pool.size

let shutdown pool =
  Mutex.lock pool.mutex;
  if pool.stopping then Mutex.unlock pool.mutex
  else begin
    pool.stopping <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    List.iter Domain.join pool.workers;
    pool.workers <- []
  end

let with_pool ?minor_heap_words ~domains f =
  let pool = create ?minor_heap_words ~domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

let minor_heap_words pool = pool.minor_heap_words

let last_batch_gc_deltas pool = Array.copy pool.last_gc

(* ------------------------------------------------------------------ *)
(* Chunking                                                            *)
(* ------------------------------------------------------------------ *)

type chunking = [ `Auto | `Fixed of int ]

(* Work a chunk should amortise the per-chunk claim (one CAS) and any
   per-chunk cold-start cost over, in the units of the caller's ?cost
   estimates (nominally microseconds). *)
let auto_chunk_target_cost = 1_000.

let fixed_offsets ~n size =
  let n_chunks = (n + size - 1) / size in
  Array.init (n_chunks + 1) (fun j -> Int.min n (j * size))

(* Group consecutive tasks greedily until a chunk's estimated cost
   reaches the target.  When the whole batch is smaller than
   [participants] targets, shrink the target to an even split instead —
   better every domain busy on half-size chunks than half the domains
   idle. *)
let costed_offsets ~n ~participants costs =
  let total = Array.fold_left ( +. ) 0. costs in
  let target =
    Float.max 1e-9
      (Float.min auto_chunk_target_cost (total /. Float.of_int participants))
  in
  let offsets = ref [ 0 ] in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. Float.max 0. costs.(i);
    if !acc >= target && i < n - 1 then begin
      offsets := (i + 1) :: !offsets;
      acc := 0.
    end
  done;
  Array.of_list (List.rev (n :: !offsets))

let chunk_offsets ~chunk ~costs ~n ~participants =
  match chunk with
  | `Fixed size ->
      if size < 1 then invalid_arg "Pool: chunk size must be >= 1";
      fixed_offsets ~n size
  | `Auto -> (
      match costs with
      | Some costs -> costed_offsets ~n ~participants costs
      | None ->
          (* No cost model: keep plenty of chunks for stealing (16 per
             participant) but amortise the claim CAS for huge batches. *)
          fixed_offsets ~n (Int.max 1 (Int.min 64 (n / (16 * participants)))))

(* ------------------------------------------------------------------ *)
(* Batch submission                                                    *)
(* ------------------------------------------------------------------ *)

let run_batch pool ~offsets run =
  let n_chunks = Array.length offsets - 1 in
  if n_chunks < 0 || n_chunks > mask31 then invalid_arg "Pool: task count out of range";
  if n_chunks = 0 then ()
  else begin
    let slices =
      Array.init pool.size (fun p ->
          Atomic.make
            (pack ~lo:(p * n_chunks / pool.size) ~hi:((p + 1) * n_chunks / pool.size)))
    in
    let b =
      {
        run;
        offsets;
        slices;
        stop = Atomic.make false;
        failure = Atomic.make None;
        gc_deltas =
          Array.init pool.size (fun participant ->
              {
                participant;
                minor_words = 0.;
                promoted_words = 0.;
                minor_collections = 0;
                major_collections = 0;
              });
        unfinished = pool.size;
      }
    in
    Mutex.lock pool.mutex;
    if pool.stopping then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Pool: map on a shut-down pool"
    end;
    if pool.busy then begin
      Mutex.unlock pool.mutex;
      invalid_arg "Pool: concurrent map calls on the same pool"
    end;
    pool.busy <- true;
    pool.current <- Some b;
    pool.generation <- pool.generation + 1;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.mutex;
    b.gc_deltas.(0) <- gc_bracket 0 (fun () -> work b 0);
    Mutex.lock pool.mutex;
    b.unfinished <- b.unfinished - 1;
    while b.unfinished > 0 do
      Condition.wait pool.batch_done pool.mutex
    done;
    pool.current <- None;
    pool.busy <- false;
    (* Every participant has retired (their slot writes happened before
       the mutex handoff above), so the deltas are complete and visible. *)
    pool.last_gc <- b.gc_deltas;
    Mutex.unlock pool.mutex;
    match Atomic.get b.failure with
    | Some (i, e) -> raise (Task_error (i, e))
    | None -> ()
  end

let map_array ?(chunk = `Auto) ?cost pool f xs =
  let n = Array.length xs in
  if n > mask31 then invalid_arg "Pool: task count out of range";
  let costs = Option.map (fun c -> Array.map c xs) cost in
  let offsets = chunk_offsets ~chunk ~costs ~n ~participants:pool.size in
  let res = Array.make n None in
  run_batch pool ~offsets (fun i -> res.(i) <- Some (f xs.(i)));
  Array.map (function Some y -> y | None -> assert false) res

let map ?chunk ?cost pool f xs =
  Array.to_list (map_array ?chunk ?cost pool f (Array.of_list xs))

let map_reduce ?chunk ?cost pool ~map:f ~reduce ~init xs =
  Array.fold_left reduce init (map_array ?chunk ?cost pool f (Array.of_list xs))

(* ------------------------------------------------------------------ *)
(* Sizing helpers                                                      *)
(* ------------------------------------------------------------------ *)

let recommended_domains () = Int.max 1 (Domain.recommended_domain_count ())

let env_domains () =
  match Sys.getenv_opt "RR_JOBS" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some 0 -> Some (recommended_domains ())
      | Some j when j > 0 -> Some j
      | _ -> None)
