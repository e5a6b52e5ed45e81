(* Tests for the incremental live engine (Rr_engine.Live) and the
   engine-selection surface that exposes it (Run.engine / selection_for).

   The load-bearing properties:

   - differential: a submit-everything-upfront live run reproduces
     Run.simulate's flows to <= 1e-9 relative for every spec and machine
     count (on such feeds the event sequences are identical, so in
     practice the agreement is bit-exact);
   - interleaved: submitting while advancing — including horizons that
     split inter-event intervals — changes nothing: on ladder knife-edge
     sizes every registry class returns the closed driver's flows bit
     for bit;
   - snapshot/restore: a restored engine continues bit-identically;
   - selection: [`Live] names, dispatches and caches distinctly from the
     closed engines, and impossible engine/policy pairings fail loudly. *)

open Temporal_fairness
module Live = Rr_engine.Live
module Instance = Rr_workload.Instance

let flow_rtol = 1e-9

let rel_diff a b = Float.abs (a -. b) /. Float.max 1e-12 (Float.max (Float.abs a) (Float.abs b))

(* Every live spec with the shared policy value it mirrors.  The last
   four exercise the [Classified] cores added with the class layer; all
   nine policies here have stateless allocate closures, so sharing one
   value across runs is safe (quantum-rr, which is not, stays out). *)
let live_specs =
  [
    (Live.Classified Rr_engine.Policy_class.Equal_share, Rr_policies.Round_robin.policy);
    (Live.Classified (Rr_engine.Policy_class.Static_key Key_remaining), Rr_policies.Srpt.policy);
    (Live.Classified (Rr_engine.Policy_class.Static_key Key_size), Rr_policies.Sjf.policy);
    (Live.Classified (Rr_engine.Policy_class.Static_key Key_arrival), Rr_policies.Fcfs.policy);
    (Live.Classified Rr_engine.Policy_class.Attained_cascade, Rr_policies.Setf.policy);
  ]
  @ List.map
      (fun spec ->
        let policy = Rr_policies.Registry.make spec in
        (Live.Classified (Option.get policy.Rr_engine.Policy.klass), policy))
      Rr_policies.Registry.
        [ Laps 0.5; Mlfq 0.5; Wrr_age 2; Hybrid 3. ]

let poisson_instance ~seed ~machines ~n =
  let rng = Rr_util.Prng.create ~seed in
  Instance.generate_load ~rng
    ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
    ~load:0.9 ~machines ~n ()

(* Feed an instance's jobs (already arrival-sorted with dense ids) into a
   live engine, collecting per-job flows through the sink. *)
let live_flows ?(interleave = fun _ _ -> ()) ~machines ~speed ~k spec inst =
  let n = Instance.n inst in
  let flows = Array.make n nan in
  let sink ~id ~arrival:_ ~flow = flows.(id) <- flow in
  let live = Live.create ~machines ~speed ~k ~sink spec in
  List.iter
    (fun (j : Rr_engine.Job.t) ->
      interleave live j;
      let id = Live.submit live ~arrival:j.arrival ~size:j.size in
      Alcotest.(check int) "dense ids follow instance ids" j.id id)
    (Instance.jobs inst);
  Live.drain live;
  (flows, Live.query live)

(* ------------------------------------------------------------------ *)
(* Differential: upfront live feed vs Run.simulate, all specs x m      *)
(* ------------------------------------------------------------------ *)

let test_upfront_matches_run () =
  List.iter
    (fun (spec, policy) ->
      List.iter
        (fun machines ->
          let inst = poisson_instance ~seed:(41 + machines) ~machines ~n:300 in
          let speed = 1.3 and k = 2 in
          let reference =
            Run.flows (Run.config ~machines ~speed ~k ~cache:false ()) policy inst
          in
          let flows, stats = live_flows ~machines ~speed ~k spec inst in
          Array.iteri
            (fun id f ->
              if rel_diff f reference.(id) > flow_rtol then
                Alcotest.failf "%s m=%d job %d: live %.17g vs run %.17g" (Live.spec_name spec)
                  machines id f reference.(id))
            flows;
          Alcotest.(check int)
            (Live.spec_name spec ^ " completes everything")
            (Instance.n inst) stats.Live.completed;
          (* The live norm folds the same completions the reference sums. *)
          let ref_norm = Rr_metrics.Norms.lk ~k reference in
          Alcotest.(check bool)
            (Live.spec_name spec ^ " live norm agrees")
            true
            (rel_diff stats.Live.norm ref_norm <= flow_rtol))
        [ 1; 2; 8 ])
    live_specs

(* ------------------------------------------------------------------ *)
(* Interleaved submit/advance property                                 *)
(* ------------------------------------------------------------------ *)

let interleave_gen =
  QCheck2.Gen.(
    let pairs = list_size (int_range 1 60) (pair (float_range 0. 30.) (float_range 0.05 5.)) in
    let machines = oneofl [ 1; 2; 8 ] in
    let speed = oneofl [ 1.; 1.3 ] in
    (* One fraction per job decides how far into the gap before its
       arrival the clock is pushed first — 0 leaves the closed event
       sequence intact, anything else splits inter-event intervals. *)
    let fracs = list_size (int_range 1 60) (float_range 0. 1.) in
    quad pairs machines speed fracs)

let prop_interleaved_matches_run spec policy =
  QCheck2.Test.make
    ~name:(Printf.sprintf "interleaved live %s matches Run.simulate" (Live.spec_name spec))
    ~count:100 interleave_gen
    (fun (pairs, machines, speed, fracs) ->
      let inst = Instance.of_jobs pairs in
      let fracs = Array.of_list fracs in
      let frac i = fracs.(i mod Array.length fracs) in
      let reference =
        Run.flows (Run.config ~machines ~speed ~cache:false ~engine:`General ()) policy inst
      in
      let interleave live (j : Rr_engine.Job.t) =
        let now = Live.now live in
        Live.advance live (now +. (frac j.id *. (j.arrival -. now)))
      in
      let flows, _ = live_flows ~interleave ~machines ~speed ~k:2 spec inst in
      Array.for_all2 (fun a b -> rel_diff a b <= flow_rtol) flows reference)

let interleaved_props =
  List.map (fun (spec, policy) -> prop_interleaved_matches_run spec policy) live_specs

(* Live MLFQ on knife-edge instances (mlfq_knife.ml): fed upfront and
   interleaved with horizon splits — the splits accumulate attained
   service in different pieces, right where a promotion lands on a
   threshold — it must agree with the general loop. *)
let prop_live_mlfq_knife_edge =
  QCheck2.Test.make ~name:"live mlfq-ladder matches general on ladder knife edges" ~count:200
    ~print:(fun (c, frac) -> Printf.sprintf "%s frac=%h" (Mlfq_knife.print c) frac)
    QCheck2.Gen.(pair Mlfq_knife.gen (float_range 0. 1.))
    (fun (c, frac) ->
      let inst = Instance.of_jobs (Mlfq_knife.pairs c) in
      let machines = c.Mlfq_knife.machines in
      let policy = Mlfq_knife.policy c in
      let spec = Live.Classified (Option.get policy.Rr_engine.Policy.klass) in
      let reference =
        Run.flows (Run.config ~machines ~cache:false ~engine:`General ()) policy inst
      in
      let agree flows = Array.for_all2 (fun a b -> rel_diff a b <= flow_rtol) flows reference in
      let upfront, _ = live_flows ~machines ~speed:1. ~k:2 spec inst in
      let interleave live (j : Rr_engine.Job.t) =
        let now = Live.now live in
        Live.advance live (now +. (frac *. (j.arrival -. now)))
      in
      let split, _ = live_flows ~interleave ~machines ~speed:1. ~k:2 spec inst in
      agree upfront && agree split)

(* Every registry class on knife-edge sizes, with the clock pushed to a
   random fraction of each gap before every submit: the live driver
   advances its kernel at events only and refreshes it once per event,
   so it must return the closed driver's flows bit for bit.  Sizes sit
   on the registry MLFQ ladder's thresholds (q = 0.5, f = 2) and their
   tolerance bands (mlfq_knife.ml), where a residual that a split rounds
   differently lands on the other side of the completion threshold.
   Levels <= 11 keep quantum-rr inside the event budget. *)
let knife_split_gen =
  QCheck2.Gen.(
    let job =
      quad (int_range 0 11)
        (oneofl Mlfq_knife.[ On; Below; Above ])
        (int_range (-3) 3)
        (oneof [ return 0.; float_range 0. 1. ])
    in
    triple (oneofl [ 1; 2; 8 ])
      (list_size (int_range 1 30) job)
      (list_size (int_range 1 30) (float_range 0. 1.)))

let knife_case (machines, jobs, _) =
  { Mlfq_knife.base_quantum = 0.5; factor = 2.; machines; jobs }

let prop_live_split_bit_exact spec =
  let klass = Option.get (Rr_policies.Registry.make spec).Rr_engine.Policy.klass in
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "split live %s = closed bit for bit on knife edges"
         (Rr_engine.Policy_class.engine_name klass))
    ~count:200
    ~print:(fun ((_, _, fracs) as g) ->
      Printf.sprintf "%s fracs=[%s]" (Mlfq_knife.print (knife_case g))
        (String.concat "; " (List.map (Printf.sprintf "%h") fracs)))
    knife_split_gen
    (fun ((machines, _, fracs) as g) ->
      let inst = Instance.of_jobs (Mlfq_knife.pairs (knife_case g)) in
      let fracs = Array.of_list fracs in
      let reference =
        Run.flows (Run.config ~machines ~cache:false ()) (Rr_policies.Registry.make spec) inst
      in
      let interleave live (j : Rr_engine.Job.t) =
        let now = Live.now live in
        Live.advance live (now +. (fracs.(j.id mod Array.length fracs) *. (j.arrival -. now)))
      in
      let flows, _ =
        live_flows ~interleave ~machines ~speed:1. ~k:2 (Live.Classified klass) inst
      in
      Array.for_all2
        (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
        flows reference)

let split_props = List.map prop_live_split_bit_exact (Rr_policies.Registry.default_specs ())

(* ------------------------------------------------------------------ *)
(* Snapshot / restore round-trip                                       *)
(* ------------------------------------------------------------------ *)

let test_snapshot_roundtrip () =
  List.iter
    (fun (spec, _) ->
      let inst = poisson_instance ~seed:7 ~machines:2 ~n:200 in
      let jobs = Instance.jobs inst in
      let live = Live.create ~machines:2 ~speed:1. ~k:2 spec in
      List.iter (fun (j : Rr_engine.Job.t) ->
          ignore (Live.submit live ~arrival:j.arrival ~size:j.size))
        jobs;
      (* Advance halfway through the arrival span, snapshot mid-flight
         (jobs alive and pending), then finish both copies. *)
      let horizon = (List.nth jobs (List.length jobs / 2)).Rr_engine.Job.arrival in
      Live.advance live horizon;
      let bytes = Live.to_bytes live in
      let restored = Live.of_bytes bytes in
      Live.drain live;
      Live.drain restored;
      let a = Live.query live and b = Live.query restored in
      (* Continuation from identical state is deterministic: bit-equal. *)
      Alcotest.(check int) (Live.spec_name spec ^ " completed") a.Live.completed b.Live.completed;
      Alcotest.(check int) (Live.spec_name spec ^ " events") a.Live.events b.Live.events;
      Alcotest.(check (float 0.)) (Live.spec_name spec ^ " norm") a.Live.norm b.Live.norm;
      Alcotest.(check (float 0.))
        (Live.spec_name spec ^ " power_sum")
        a.Live.power_sum b.Live.power_sum;
      Alcotest.(check (float 0.))
        (Live.spec_name spec ^ " makespan")
        a.Live.makespan b.Live.makespan;
      Alcotest.(check (float 0.)) (Live.spec_name spec ^ " p99") a.Live.p99 b.Live.p99)
    live_specs

let test_snapshot_file_roundtrip () =
  let live = Live.create (Live.Classified Rr_engine.Policy_class.Equal_share) in
  ignore (Live.submit live ~arrival:0. ~size:2.);
  ignore (Live.submit live ~arrival:0.5 ~size:1.);
  Live.advance live 1.;
  let path = Filename.temp_file "rr_live" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Live.save live path;
      let restored = Live.load path in
      Live.drain live;
      Live.drain restored;
      Alcotest.(check (float 0.))
        "file round-trip norm" (Live.query live).Live.norm (Live.query restored).Live.norm);
  (* Garbage is rejected by the magic header, not by a Marshal crash. *)
  Alcotest.check_raises "of_bytes rejects garbage"
    (Failure "Live.of_bytes: not a live-engine snapshot") (fun () ->
      ignore (Live.of_bytes (Bytes.of_string "definitely not a snapshot")))

(* A snapshot from an older build carries an older layout: re-heading a
   current snapshot with the previous version's magic must be refused by
   the header check, before any unmarshalling. *)
let test_snapshot_rejects_old_version () =
  List.iter
    (fun (spec, _) ->
      let live = Live.create ~machines:2 spec in
      ignore (Live.submit live ~arrival:0. ~size:2.);
      ignore (Live.submit live ~arrival:0.5 ~size:1.);
      Live.advance live 1.;
      let current = Live.to_bytes live in
      let magic = "rr-live-snapshot-v7\n" in
      Alcotest.(check string)
        (Live.spec_name spec ^ " carries the current magic")
        magic
        (Bytes.sub_string current 0 (String.length magic));
      let old = Bytes.copy current in
      Bytes.blit_string "rr-live-snapshot-v6\n" 0 old 0 (String.length magic);
      Alcotest.check_raises
        (Live.spec_name spec ^ " v6 snapshot rejected")
        (Failure "Live.of_bytes: not a live-engine snapshot")
        (fun () -> ignore (Live.of_bytes old)))
    live_specs

(* ------------------------------------------------------------------ *)
(* The pending ring                                                    *)
(* ------------------------------------------------------------------ *)

(* A batched feed whose advances lag the submissions: after each batch
   of [len] jobs the clock moves to the midpoint between two arrivals, so
   exactly [lag] submitted jobs stay pending ([lag = 0] drains).  On the
   ring's initial 16 slots the second batch wraps it, the third grows it
   while wrapped, and the fourth wraps the grown ring again. *)
let ring_script = [ (10, 2); (12, 10); (20, 25); (5, 30); (60, 40); (100, 7); (93, 0) ]

let ring_jobs () =
  let inst = poisson_instance ~seed:17 ~machines:2 ~n:300 in
  let jobs = Array.of_list (Instance.jobs inst) in
  ( inst,
    Array.map (fun (j : Rr_engine.Job.t) -> j.arrival) jobs,
    Array.map (fun (j : Rr_engine.Job.t) -> j.size) jobs )

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_stats_bits name (a : Live.stats) (b : Live.stats) =
  let ints (s : Live.stats) =
    [ s.submitted; s.completed; s.alive; s.pending; s.events; s.max_alive ]
  and floats (s : Live.stats) =
    [ s.now; s.makespan; s.mean_flow; s.max_flow; s.power_sum; s.norm; s.p50; s.p90; s.p99 ]
  in
  Alcotest.(check (list int)) (name ^ " counts") (ints a) (ints b);
  Alcotest.(check (list int64))
    (name ^ " float bits")
    (List.map Int64.bits_of_float (floats a))
    (List.map Int64.bits_of_float (floats b))

(* Drive [spec] through [ring_script], checking every batch's ids and
   the pending count after every batch and advance.  [at_step i live]
   runs after batch [i] is submitted, before its advance, and returns
   the engine to carry on with.  Returns the per-job flows and the final
   stats. *)
let run_ring_script ?(at_step = fun _ live -> live) spec ~arrivals ~sizes =
  let flows = Array.make (Array.length arrivals) nan in
  let sink ~id ~arrival:_ ~flow = flows.(id) <- flow in
  let live = ref (Live.create ~machines:2 ~sink spec) in
  let pending () = (Live.query !live).Live.pending in
  ignore
    (List.fold_left
       (fun (i, first, lag_before) (len, lag) ->
         Alcotest.(check int) "batch first id" first
           (Live.submit_batch !live ~arrivals ~sizes ~off:first ~len ());
         Alcotest.(check int) "pending after batch" (lag_before + len) (pending ());
         live := at_step i !live;
         Live.set_sink !live sink;
         let submitted = first + len in
         if lag = 0 then Live.drain !live
         else
           Live.advance !live
             ((arrivals.(submitted - lag - 1) +. arrivals.(submitted - lag)) /. 2.);
         Alcotest.(check int) "pending after advance" lag (pending ());
         (i + 1, submitted, lag))
       (0, 0, 0) ring_script
      : int * int * int);
  (flows, Live.query !live)

let check_flows_closed spec inst flows =
  let (Live.Classified klass) = spec in
  let reference =
    Rr_engine.Simulator.(flows (run_class ~machines:2 klass (Instance.jobs inst)))
  in
  Array.iteri
    (fun i f ->
      if not (bits_equal f reference.(i)) then
        Alcotest.failf "%s job %d: live %h vs closed %h" (Live.spec_name spec) i f
          reference.(i))
    flows

let test_ring_wrap_and_grow () =
  let inst, arrivals, sizes = ring_jobs () in
  List.iter
    (fun (spec, _) ->
      let flows, _ = run_ring_script spec ~arrivals ~sizes in
      check_flows_closed spec inst flows)
    live_specs

(* Rejected batches long enough to grow the wrapped ring, were they
   accepted, leave the engine byte-for-byte as it was. *)
let test_ring_rejected_batch () =
  let inst, arrivals, sizes = ring_jobs () in
  let reject i live =
    if i = 3 then begin
      let before = Live.to_bytes live and stats = Live.query live in
      let first = stats.Live.submitted in
      List.iter
        (fun spoil ->
          let a = Array.sub arrivals first 40 and s = Array.sub sizes first 40 in
          spoil a s;
          (match Live.submit_batch live ~arrivals:a ~sizes:s () with
          | _ -> Alcotest.fail "invalid batch accepted"
          | exception Invalid_argument _ -> ());
          check_stats_bits "rejected batch" stats (Live.query live);
          Alcotest.(check bool)
            "snapshot unchanged" true
            (Bytes.equal before (Live.to_bytes live)))
        [ (fun _ s -> s.(39) <- 0.); (fun a _ -> a.(39) <- a.(38) -. 1.) ]
    end;
    live
  in
  List.iter
    (fun (spec, _) ->
      let flows, _ = run_ring_script ~at_step:reject spec ~arrivals ~sizes in
      check_flows_closed spec inst flows)
    live_specs

(* A snapshot of a wrapped, grown ring restores into an engine that
   finishes exactly as the run that never snapshotted. *)
let test_ring_snapshot_wrapped () =
  let _, arrivals, sizes = ring_jobs () in
  List.iter
    (fun (spec, _) ->
      let plain_flows, plain = run_ring_script spec ~arrivals ~sizes in
      let restore i live = if i = 3 then Live.of_bytes (Live.to_bytes live) else live in
      let flows, restored = run_ring_script ~at_step:restore spec ~arrivals ~sizes in
      check_stats_bits (Live.spec_name spec ^ " restored") plain restored;
      Alcotest.(check bool)
        (Live.spec_name spec ^ " flows bit for bit")
        true
        (Array.for_all2 bits_equal plain_flows flows))
    live_specs

(* The ring starts at 16 slots, so an idle engine's snapshot stays small
   (under a kilobyte for the equal-share engine [serve] runs by default):
   16 pending jobs fit in place, and the 17th doubles the two arrays. *)
let test_ring_idle_snapshot_small () =
  List.iter
    (fun (spec, _) ->
      let size jobs =
        let live = Live.create spec in
        for i = 1 to jobs do
          ignore (Live.submit live ~arrival:(Float.of_int i) ~size:1. : int)
        done;
        Bytes.length (Live.to_bytes live)
      in
      let name = Live.spec_name spec and idle = size 0 in
      Alcotest.(check int) (name ^ ": 16 pending jobs fit the idle ring") idle (size 16);
      Alcotest.(check int) (name ^ ": the 17th doubles it") (idle + (2 * 16 * 8)) (size 17))
    live_specs;
  let rr = Live.Classified Rr_engine.Policy_class.Equal_share in
  let idle = Bytes.length (Live.to_bytes (Live.create rr)) in
  if idle >= 1024 then Alcotest.failf "equal-share idle snapshot is %d bytes" idle

(* ------------------------------------------------------------------ *)
(* The hybrid's job table                                              *)
(* ------------------------------------------------------------------ *)

(* The hybrid kernel finds its jobs by id in an open-addressing table
   probed from [id land mask], sized by the alive count.  Closed ids are
   any permutation of 0 .. n-1 against arrival order, and a live engine's
   ids grow without bound, so both shapes are pinned to the general loop
   (<= 1e-9) and to each other (bit for bit). *)

let hybrid_theta = 3.

let hybrid_class = Rr_engine.Policy_class.Starvation_hybrid { theta = hybrid_theta }

let hybrid_policy () = Rr_policies.Registry.make (Rr_policies.Registry.Hybrid hybrid_theta)

(* [bits] reversed: consecutive ranks get ids that share their low bits,
   so the alive ids crowd a few home slots of a small table. *)
let bit_reverse ~bits r =
  let x = ref 0 in
  for b = 0 to bits - 1 do
    if r land (1 lsl b) <> 0 then x := !x lor (1 lsl (bits - 1 - b))
  done;
  !x

let check_close name ~reference flows =
  Array.iteri
    (fun i f ->
      if rel_diff f reference.(i) > flow_rtol then
        Alcotest.failf "%s job %d: %.17g vs general %.17g" name i f reference.(i))
    flows

let check_bits name ~reference flows =
  Array.iteri
    (fun i f ->
      if not (bits_equal f reference.(i)) then
        Alcotest.failf "%s job %d: %h vs closed %h" name i f reference.(i))
    flows

let test_hybrid_ids_against_arrival () =
  let bits = 9 in
  let n = 1 lsl bits in
  List.iter
    (fun (label, relabel) ->
      List.iter
        (fun machines ->
          let sorted = Array.of_list (Instance.jobs (poisson_instance ~seed:29 ~machines ~n)) in
          let jobs =
            Array.to_list
              (Array.mapi
                 (fun rank (j : Rr_engine.Job.t) ->
                   Rr_engine.Job.make ~id:(relabel rank) ~arrival:j.arrival ~size:j.size)
                 sorted)
          in
          let name = Printf.sprintf "%s ids, m=%d" label machines in
          let closed = Rr_engine.Simulator.(flows (run_class ~machines hybrid_class jobs)) in
          let general =
            Rr_engine.Simulator.(flows (run ~machines ~policy:(hybrid_policy ()) jobs))
          in
          check_close (name ^ ": closed") ~reference:general closed;
          (* The live engine numbers the same jobs 0 .. n-1 in arrival
             order; no two keys tie, so the ids decide nothing. *)
          let live = Array.make n nan in
          let t =
            Live.create ~machines ~sink:(fun ~id ~arrival:_ ~flow -> live.(id) <- flow)
              (Live.Classified hybrid_class)
          in
          Array.iter
            (fun (j : Rr_engine.Job.t) ->
              ignore (Live.submit t ~arrival:j.arrival ~size:j.size : int))
            sorted;
          Live.drain t;
          check_bits (name ^ ": live") ~reference:(Array.init n (fun r -> closed.(relabel r))) live)
        [ 1; 3 ])
    [ ("reversed", fun r -> n - 1 - r); ("bit-reversed", bit_reverse ~bits) ]

(* A long live feed in batches, each advanced to a horizon inside the
   next batch's gap: the alive set outgrows the table's first sizes many
   times over while the ids run far past its length. *)
let test_hybrid_live_table_grows () =
  let machines = 1 and n = 6000 in
  let inst =
    Instance.generate_load ~rng:(Rr_util.Prng.create ~seed:31)
      ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
      ~load:0.97 ~machines ~n ()
  in
  let jobs = Instance.jobs inst in
  let arrivals = Array.of_list (List.map (fun (j : Rr_engine.Job.t) -> j.arrival) jobs) in
  let sizes = Array.of_list (List.map (fun (j : Rr_engine.Job.t) -> j.size) jobs) in
  let live = Array.make n nan in
  let t =
    Live.create ~machines ~sink:(fun ~id ~arrival:_ ~flow -> live.(id) <- flow)
      (Live.Classified hybrid_class)
  in
  let batch = 37 in
  let off = ref 0 in
  while !off < n do
    let len = min batch (n - !off) in
    ignore (Live.submit_batch t ~arrivals ~sizes ~off:!off ~len () : int);
    off := !off + len;
    if !off < n then Live.advance t ((arrivals.(!off - 1) +. arrivals.(!off)) /. 2.)
  done;
  Live.drain t;
  let stats = Live.query t in
  Alcotest.(check int) "every job completes" n stats.Live.completed;
  Alcotest.(check bool)
    (Printf.sprintf "the alive set outgrew the table's first sizes (max alive %d)"
       stats.Live.max_alive)
    true (stats.Live.max_alive > 64);
  let closed = Rr_engine.Simulator.(flows (run_class ~machines hybrid_class jobs)) in
  check_bits "live" ~reference:closed live;
  let general = Rr_engine.Simulator.(flows (run ~machines ~policy:(hybrid_policy ()) jobs)) in
  check_close "closed" ~reference:general closed

(* ------------------------------------------------------------------ *)
(* Submit validation and resumability                                  *)
(* ------------------------------------------------------------------ *)

let test_submit_validation () =
  let live = Live.create (Live.Classified Rr_engine.Policy_class.Equal_share) in
  ignore (Live.submit live ~arrival:2. ~size:1.);
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "decreasing arrival" (fun () -> Live.submit live ~arrival:1. ~size:1.);
  expect_invalid "nan arrival" (fun () -> Live.submit live ~arrival:Float.nan ~size:1.);
  expect_invalid "non-positive size" (fun () -> Live.submit live ~arrival:3. ~size:0.);
  expect_invalid "nan horizon" (fun () -> Live.advance live Float.nan);
  Live.drain live;
  (* The clock parks at the last completion, so the engine accepts more
     work afterwards — drain is a checkpoint, not an end state. *)
  ignore (Live.submit live ~arrival:(Live.now live +. 1.) ~size:0.5);
  Live.drain live;
  Alcotest.(check int) "resumed after drain" 2 (Live.query live).Live.completed;
  expect_invalid "arrival in the simulated past" (fun () ->
      Live.submit live ~arrival:0. ~size:1.)

(* An exhausted event budget: four unit jobs released at 0, 1, 2 and 3
   and a budget of three events.  The engine stops at the third event
   (t = 2); every later advance or drain is refused with that budget and
   instant and leaves the statistics bit for bit as they were, while
   submissions are still taken. *)
let test_event_budget_exhausted () =
  let bits (q : Live.stats) =
    Printf.sprintf "%d %d %d %d %h %d %h %d %h %h %h %h %h %h %h" q.submitted q.completed q.alive
      q.pending q.now q.events q.makespan q.max_alive q.mean_flow q.max_flow q.power_sum q.norm
      q.p50 q.p90 q.p99
  in
  List.iter
    (fun klass ->
      let live = Live.create ~max_events:3 (Live.Classified klass) in
      List.iter (fun a -> ignore (Live.submit live ~arrival:a ~size:1.)) [ 0.; 1.; 2.; 3. ];
      let refused name f =
        match f () with
        | exception Rr_engine.Simulator.Event_limit_exceeded { limit; now } ->
            Alcotest.(check int) (name ^ ": limit") 3 limit;
            Alcotest.(check (float 0.)) (name ^ ": instant") 2. now
        | () -> Alcotest.failf "%s: expected Event_limit_exceeded" name
      in
      refused "first advance" (fun () -> Live.advance live 100.);
      let stats = Live.query live in
      Alcotest.(check int) "events = max_events" 3 stats.Live.events;
      Alcotest.(check (float 0.)) "now at the last event" 2. stats.Live.now;
      Alcotest.(check int) "completed" 2 stats.Live.completed;
      refused "second advance" (fun () -> Live.advance live 100.);
      refused "drain" (fun () -> Live.drain live);
      Alcotest.(check string) "refusals change nothing" (bits stats) (bits (Live.query live));
      Alcotest.(check int) "submit still taken" 4 (Live.submit live ~arrival:5. ~size:1.))
    [
      Rr_engine.Policy_class.Equal_share;
      Rr_engine.Policy_class.Static_key Rr_engine.Policy_class.Key_remaining;
    ]

(* ------------------------------------------------------------------ *)
(* Engine selection surface                                            *)
(* ------------------------------------------------------------------ *)

let test_selection_surface () =
  let rr = Rr_policies.Round_robin.policy and srpt = Rr_policies.Srpt.policy in
  let sel engine policy = Run.selection_for (Run.config ~engine ()) policy in
  Alcotest.(check bool) "auto picks equal-share for rr" true
    (sel `Auto rr = Run.Closed Rr_engine.Policy_class.Equal_share);
  (* [`Live] routes every classified policy through [Live.Classified];
     spec_name keeps the historical spellings, so audit names are stable. *)
  Alcotest.(check bool) "live rr" true
    (sel `Live rr = Run.Live Rr_engine.Policy_class.Equal_share);
  Alcotest.(check bool) "live srpt" true
    (sel `Live srpt
    = Run.Live (Rr_engine.Policy_class.Static_key Rr_engine.Policy_class.Key_remaining));
  Alcotest.(check string) "live engine name" "live-equal-share"
    (Run.engine_name (Run.config ~engine:`Live ()) rr);
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  (* Classified policies all carry a closed kernel and a live core; only
     policies with no class declaration (klass = None) are refused. *)
  let laps = Rr_policies.Registry.make (Rr_policies.Registry.Laps 0.25) in
  Alcotest.(check bool) "live accepts classified laps" true
    (match sel `Live laps with Run.Live _ -> true | _ -> false);
  let unclassified =
    { Rr_policies.Srpt.policy with Rr_engine.Policy.name = "unclassified"; klass = None }
  in
  expect_invalid "closed refuses unclassified policies" (fun () -> sel `Closed unclassified);
  expect_invalid "live refuses unclassified policies" (fun () -> sel `Live unclassified)

let test_live_measure_agrees_and_never_aliases () =
  Cache.clear ();
  let srpt = Rr_policies.Srpt.policy in
  let inst = poisson_instance ~seed:3 ~machines:1 ~n:150 in
  let auto = Run.measure (Run.config ()) srpt inst in
  let live = Run.measure (Run.config ~engine:`Live ()) srpt inst in
  let s = Cache.stats () in
  Alcotest.(check int) "distinct cache keys" 2 s.misses;
  Alcotest.(check bool) "norm agrees" true (rel_diff auto.Run.norm live.Run.norm <= flow_rtol);
  Alcotest.(check bool) "mean agrees" true
    (rel_diff auto.Run.mean_flow live.Run.mean_flow <= flow_rtol);
  Alcotest.(check bool) "max agrees" true
    (rel_diff auto.Run.max_flow live.Run.max_flow <= flow_rtol)

let test_live_measure_stream_agrees () =
  let stream =
    Instance.Stream.generate_load ~seed:5
      ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
      ~load:0.9 ~machines:2 ~n:2_000 ()
  in
  let rr = Rr_policies.Round_robin.policy in
  let auto = Run.measure_stream (Run.config ~machines:2 ~cache:false ()) rr stream in
  let live = Run.measure_stream (Run.config ~machines:2 ~cache:false ~engine:`Live ()) rr stream in
  Alcotest.(check int) "same n" auto.Run.n live.Run.n;
  Alcotest.(check bool) "stream norm agrees" true
    (rel_diff auto.Run.norm live.Run.norm <= flow_rtol)

let qsuite =
  List.map QCheck_alcotest.to_alcotest interleaved_props
  @ [ Mlfq_knife.to_alcotest ~seed:20150601 prop_live_mlfq_knife_edge ]
  @ List.map (Mlfq_knife.to_alcotest ~seed:20150601) split_props

let () =
  Alcotest.run "rr_live"
    [
      ( "differential",
        [
          Alcotest.test_case "upfront feed matches Run (5 specs x m in {1,2,8})" `Quick
            test_upfront_matches_run;
        ] );
      ("interleaved", qsuite);
      ( "snapshot",
        [
          Alcotest.test_case "mid-flight bytes round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "file round-trip + garbage rejection" `Quick
            test_snapshot_file_roundtrip;
          Alcotest.test_case "older snapshot version rejected" `Quick
            test_snapshot_rejects_old_version;
        ] );
      ( "pending ring",
        [
          Alcotest.test_case "wraps and grows mid-wrap, = closed bit for bit" `Quick
            test_ring_wrap_and_grow;
          Alcotest.test_case "rejected batch leaves the engine untouched" `Quick
            test_ring_rejected_batch;
          Alcotest.test_case "wrapped snapshot restores bit for bit" `Quick
            test_ring_snapshot_wrapped;
          Alcotest.test_case "idle snapshot stays small" `Quick test_ring_idle_snapshot_small;
        ] );
      ( "hybrid table",
        [
          Alcotest.test_case "closed ids against arrival order = general, = live" `Quick
            test_hybrid_ids_against_arrival;
          Alcotest.test_case "long live feed grows the table, = closed bit for bit" `Quick
            test_hybrid_live_table_grows;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "submit validation and resume after drain" `Quick test_submit_validation;
          Alcotest.test_case "exhausted event budget stops at the limit" `Quick
            test_event_budget_exhausted;
        ] );
      ( "selection",
        [
          Alcotest.test_case "selection_for surface" `Quick test_selection_surface;
          Alcotest.test_case "live measure agrees, never aliases" `Quick
            test_live_measure_agrees_and_never_aliases;
          Alcotest.test_case "live measure_stream agrees" `Quick test_live_measure_stream_agrees;
        ] );
    ]
