(* The per-layer pass of a traced run.  It splits both paths into named
   layers on inputs made from the seed:

   - the serving ladder: one wire-bulk feed through more and more of the
     stack (generator, closed RR kernel, metric folds, [Live], frame
     codec, socket, observer), so each rung's delta is one layer's cost
     per job and the top rung reproduces the end-to-end figure;
   - the server child's /proc and GC counters, per job (bulk) and per
     frame (open loop at 20k frames/s), and an open-loop rate ladder;
   - the offline kernels, per engine and shape;
   - the certification path, per public call, plus its 2-domain speedup.

   Every metric here names the end-to-end metric it should move in
   benchmark/README.md.  The pass forks daemons first and spawns the
   2-domain pool last: OCaml 5 forbids fork once a domain has run. *)

module Live = Rr_engine.Live
module Frame = Rr_serve.Frame
module Ring = Rr_serve.Ring
module Sink = Rr_metrics.Sink
module Run = Temporal_fairness.Run
module Lp_bound = Rr_lp.Lp_bound

let metric = Outcome.metric
let batch = Wire.bulk_batch
let per x n = x /. Float.of_int (max 1 n)

type cost = { ns : float; words : float; majors : int }

(* [f] inside a span: its wall ns, as measured, and its GC work. *)
let cost name f =
  let g0 = Gc.quick_stat () and t0 = Stat.now_ns () in
  let v = Span.with_ name f in
  let t1 = Stat.now_ns () and g1 = Gc.quick_stat () in
  ( {
      ns = Float.of_int (t1 - t0);
      words = g1.minor_words -. g0.minor_words;
      majors = g1.major_collections - g0.major_collections;
    },
    v )

(* [f] and the machine's speed around it (speed.ml): the mean of the
   readings just before and just after.  The parts of a closure run
   inside one such window, so one speed scales them all and their ratio
   is as measured: separate readings per part would add their own noise
   to it, and a co-tenant phase that starts inside a window moves one
   ratio of a median. *)
let at_speed f =
  let s0 = Speed.read () in
  let v = f () in
  (v, (s0 +. Speed.read ()) /. 2.)

(* Scaled ns and minor words per job around one rung. *)
let rung name ~jobs f =
  Gc.full_major ();
  let (c, v), speed = at_speed (fun () -> cost name f) in
  (per (c.ns *. speed) jobs, per c.words jobs, v)

let no_sink ~id:_ ~arrival:_ ~flow:_ = ()

let closed_rr ~seed ~n sink =
  ignore
    (Rr_engine.Simulator.run_equal_share_stream_raw ~max_events:((4 * n) + 1024) ~machines:1 ~sink
       (Rr_workload.Instance.Stream.start_raw (Wire.stream ~seed ~n))
      : Rr_engine.Simulator.summary)

(* The folds [Live] keeps per completion: a power sum, Welford moments
   and three P-squared quantiles. *)
let fold_sink () =
  let ps = Sink.power_sum ~k:2 () and mo = Sink.moments () in
  let q50 = Sink.quantile ~p:0.5 () and q90 = Sink.quantile ~p:0.9 () in
  let q99 = Sink.quantile ~p:0.99 () in
  fun ~id:_ ~arrival:_ ~flow ->
    Sink.push ps flow;
    Sink.push mo flow;
    Sink.push q50 flow;
    Sink.push q90 flow;
    Sink.push q99 flow

(* [Live] behind the frame codec: every request is encoded with the
   public writers, parsed back with [parse_header]/[get_f64] the way the
   server does, and every reply goes the same way back.  No syscalls. *)
let codec_live ~seed ~n =
  let f = Wire.feed (Wire.stream ~seed ~n) ~batch in
  let live = Live.create Wire.rr in
  let c2s = Ring.create () and s2c = Ring.create () in
  let arrivals = Array.make batch 0. and sizes = Array.make batch 0. in
  let header ring =
    match Frame.parse_header (Ring.buf ring) (Ring.pos ring) with
    | Ok h -> h
    | Error msg -> failwith msg
  in
  let serve () =
    let op, plen = header c2s in
    let b = Ring.buf c2s and p = Ring.pos c2s + Frame.header_size in
    if op = Frame.op_batch then begin
      let count = Frame.get_u32 b p in
      for i = 0 to count - 1 do
        arrivals.(i) <- Frame.get_f64 b (p + 4 + (16 * i));
        sizes.(i) <- Frame.get_f64 b (p + 12 + (16 * i))
      done;
      let first = Live.submit_batch live ~arrivals ~sizes ~len:count () in
      Frame.put_ok_id s2c ~first_id:first ~count
    end
    else begin
      Live.advance live (Frame.get_f64 b p);
      let s = Live.query live in
      Frame.put_ok_now s2c ~now:s.now ~completed:s.completed ~alive:s.alive
    end;
    Ring.consume c2s (Frame.header_size + plen)
  in
  let reply () =
    let _, plen = header s2c in
    ignore (Frame.get_u64 (Ring.buf s2c) (Ring.pos s2c + Frame.header_size) : int);
    Ring.consume s2c (Frame.header_size + plen)
  in
  let rec go () =
    let len = Wire.next_batch f in
    if len > 0 then begin
      Frame.put_batch c2s ~arrivals:f.arrivals ~sizes:f.sizes ~off:0 ~len;
      serve ();
      reply ();
      Frame.put_advance c2s f.arrivals.(len - 1);
      serve ();
      reply ();
      go ()
    end
  in
  go ();
  Live.drain live;
  Live.query live

let us_of a p = 1e6 *. Rr_util.Stats.percentile a ~p

(* ------------------------------------------------------------------ *)
(* Serving path                                                        *)
(* ------------------------------------------------------------------ *)

let serving ~seed ~n =
  let r0, w0, () = rung "ladder.r0" ~jobs:n (fun () ->
      let f = Wire.feed (Wire.stream ~seed ~n) ~batch in
      while Wire.next_batch f > 0 do () done)
  in
  let r1, w1, () = rung "ladder.r1" ~jobs:n (fun () -> closed_rr ~seed ~n no_sink) in
  let r2, w2, () = rung "ladder.r2" ~jobs:n (fun () -> closed_rr ~seed ~n (fold_sink ())) in
  let r3, w3, live =
    rung "ladder.r3" ~jobs:n (fun () -> Wire.replay ~seed ~n ~batch ~batches:max_int)
  in
  let r4, w4, codec = rung "ladder.r4" ~jobs:n (fun () -> codec_live ~seed ~n) in
  Outcome.check (Wire.stats_identical live codec)
    "ladder: the frame codec changed the engine's STATS";
  (* One socket rep: unscaled ns and client + daemon minor words per job. *)
  let socket ~observers name =
    let s = Wire.samples () in
    Gc.full_major ();
    let c, rep = cost name (fun () -> Wire.bulk_rep ~observers ~seed ~jobs:n s) in
    Wire.check_rep ~what:name ~seed ~n ~batch rep;
    (per c.ns n, per c.words n +. per rep.server_gc.minor_words n, rep, s)
  in
  let (r5, w5, _, _), speed5 = at_speed (fun () -> socket ~observers:0 "ladder.r5") in
  let r5 = r5 *. speed5 in
  (* r6 alternates with the same rep untraced, the end-to-end figure the
     rungs must add up to, in nine pairs that swap which side runs
     first.  The closure is the median of the per-pair ratios (one 1M-job
     rep varies by about 10% on the reference box). *)
  let traced = !Span.on in
  let untraced () =
    Span.on := false;
    let e2e, _, _, _ = socket ~observers:1 "ladder.e2e" in
    Span.on := traced;
    e2e
  in
  let pair i =
    let (r6, e2e), speed =
      at_speed (fun () ->
          if i mod 2 = 0 then
            let r6 = socket ~observers:1 "ladder.r6" in
            (r6, untraced ())
          else
            let e2e = untraced () in
            (socket ~observers:1 "ladder.r6", e2e))
    in
    let ns, words, rep, s = r6 in
    ((ns *. speed, words, rep, s), ns /. e2e)
  in
  let pairs = List.init 9 pair in
  let median f = Rr_util.Stats.median (Array.of_list (List.map f pairs)) in
  let r6 = median (fun ((ns, _, _, _), _) -> ns) in
  let (_, w6, rep, s), _ = List.hd pairs in
  List.iteri
    (fun i (ns, words) ->
      metric (Printf.sprintf "ladder.r%d.ns_per_job" i) ns;
      metric (Printf.sprintf "ladder.r%d.words_per_job" i) words)
    [ (r0, w0); (r1, w1); (r2, w2); (r3, w3); (r4, w4); (r5, w5); (r6, w6) ];
  metric "ladder.closure" (median snd);
  metric "stream.ns_per_job" r0;
  List.iter
    (fun (call, buf) ->
      let a = Stat.Buf.to_array buf in
      metric (Printf.sprintf "client.%s.rtt_p50_us" call) (us_of a 50.);
      metric (Printf.sprintf "client.%s.rtt_p99_us" call) (us_of a 99.))
    [ ("submit_batch", s.batch); ("advance", s.advance); ("stats", s.stats) ];
  let b = rep.server_before and a = rep.server_after in
  metric "server.bulk.cpu_ns_per_job" (per (1e9 *. (a.user_s +. a.sys_s -. b.user_s -. b.sys_s)) n);
  metric "server.bulk.bytes_in_per_job" (per (Float.of_int (a.rchar - b.rchar)) n);
  metric "server.bulk.minor_words_per_job" (per rep.server_gc.minor_words n);
  metric "server.bulk.major_collections" (Float.of_int rep.server_gc.major_collections);
  metric "server.bulk.peak_rss_mb" a.hwm_mb

let open_rates = [ ("10k", 10_000.); ("20k", 20_000.); ("30k", 30_000.); ("40k", 40_000.) ]

let open_loop ~seed ~duration_s =
  List.iter
    (fun (label, rate) ->
      let s = Wire.samples () in
      let long = String.equal label "20k" in
      let rep =
        Wire.open_rep ~seed ~rate ~duration_s:(if long then 2. *. duration_s else duration_s) s
      in
      Wire.check_rep ~what:("open ladder " ^ label) ~seed ~n:rep.jobs ~batch:Wire.open_batch rep;
      let lat = Stat.Buf.to_array s.frame in
      metric (Printf.sprintf "open.ladder.%s.p50_us" label) (us_of lat 50.);
      metric (Printf.sprintf "open.ladder.%s.p99_us" label) (us_of lat 99.);
      if long then begin
        metric "open.p90_us" (us_of lat 90.);
        metric "open.p99_us" (us_of lat 99.);
        metric "open.p999_us" (us_of lat 99.9);
        metric "open.max_late_ms" (1e3 *. rep.late_max_s);
        metric "open.samples" (Float.of_int (Array.length lat));
        let b = rep.server_before and a = rep.server_after in
        let cpu = a.user_s +. a.sys_s -. b.user_s -. b.sys_s in
        let frames = rep.frames in
        metric "server.open.cpu_us_per_frame" (per (1e6 *. cpu) frames);
        metric "server.open.sys_cpu_frac" (if cpu > 0. then (a.sys_s -. b.sys_s) /. cpu else 0.);
        let per_frame x = per (Float.of_int x) frames in
        metric "server.open.read_syscalls_per_frame" (per_frame (a.syscr - b.syscr));
        metric "server.open.write_syscalls_per_frame" (per_frame (a.syscw - b.syscw));
        metric "server.open.ctx_switches_per_frame" (per_frame (a.ctx_switches - b.ctx_switches));
        metric "server.open.bytes_out_per_frame" (per_frame (a.wchar - b.wchar))
      end)
    open_rates

(* ------------------------------------------------------------------ *)
(* Offline path                                                        *)
(* ------------------------------------------------------------------ *)

let offline ~seed ~n =
  List.iter
    (fun (c : Offline.cell) ->
      let name field =
        Printf.sprintf "offline.%s.%s.%s" (Offline.kernel_label c.kernel) c.shape field
      in
      metric (name "ns_per_job") (per c.ns n);
      metric (name "words_per_job") (per c.words n);
      metric (name "events_per_job") (per (Float.of_int c.result.events) n))
    (Offline.rep ~seed ~n)

let timed_ms name f =
  let c, v = cost name f in
  (c.ns /. 1e6, v)

(* One round, every time as measured. *)
type certify_round = {
  whole : cost;
  cheap_ms : float;
  rr_ms : float;
  srpt_ms : float;
  lp_ms : float;
  solves_ms : float array;
  delta : float;
  ratio : float;
}

(* One [vs_certified] from a cold cache, then the public calls it makes,
   one by one on the same instance, all inside one speed window; the
   round and its speed. *)
let certify_round inst =
  Temporal_fairness.Cache.clear ();
  Gc.full_major ();
  at_speed (fun () ->
    let whole, c = cost "certify" (fun () -> Certify.certify inst) in
    let cfg = Run.config ~k:Certify.k ~cache:false () in
    let cheap_ms, _ =
      timed_ms "Lp_bound.cheap_lower_bound" (fun () ->
          Lp_bound.cheap_lower_bound ~k:Certify.k ~machines:1 inst)
    in
    let measure name policy = fst (timed_ms name (fun () -> Run.measure cfg policy inst)) in
    let rr_ms = measure "Run.measure.rr" Rr_policies.Round_robin.policy in
    let srpt_ms = measure "Run.measure.srpt" Rr_policies.Srpt.policy in
    let solves = Stat.Buf.create () in
    let probe reqs =
      List.map
        (fun (mode, delta) ->
          let t0 = Stat.now_ns () in
          let v =
            Span.with_ "Lp_bound.value" (fun () ->
                Lp_bound.value ~mode ~k:Certify.k ~machines:1 ~delta inst)
          in
          Stat.Buf.add solves (Float.of_int (Stat.now_ns () - t0) /. 1e6);
          v)
        reqs
    in
    let lp_ms, itv =
      timed_ms "Lp_bound.value_interval" (fun () ->
          Lp_bound.value_interval ~probe ~tol:Certify.tol ~k:Certify.k ~machines:1 inst)
    in
    let solves_ms = Stat.Buf.to_array solves in
    Certify.check_point ~what:"certify layers" c;
    { whole; cheap_ms; rr_ms; srpt_ms; lp_ms; solves_ms; delta = itv.delta; ratio = c.ratio })

(* Five rounds; each metric is its median over them, the closure the
   median of each round's ratio. *)
let certify ~seed ~n =
  let inst = Certify.instance ~seed ~n in
  let rounds = List.init 5 (fun _ -> certify_round inst) in
  let over f = Rr_util.Stats.median (Array.of_list (List.map f rounds)) in
  let median f = over (fun (r, _) -> f r) and scaled f = over (fun (r, speed) -> f r *. speed) in
  let whole_ms r = r.whole.ns /. 1e6 in
  let total_ms = scaled whole_ms in
  metric "certify.cheap_lower_bound_ms" (scaled (fun r -> r.cheap_ms));
  metric "certify.measure_rr_ms" (scaled (fun r -> r.rr_ms));
  metric "certify.measure_srpt_ms" (scaled (fun r -> r.srpt_ms));
  metric "certify.lp.solves" (median (fun r -> Float.of_int (Array.length r.solves_ms)));
  metric "certify.lp.total_ms" (scaled (fun r -> r.lp_ms));
  metric "certify.lp.max_ms" (scaled (fun r -> Array.fold_left Float.max 0. r.solves_ms));
  metric "certify.lp.final_delta" (median (fun r -> r.delta));
  (* [vs_certified] runs the cheap bound twice: once as its own filter and
     once inside [Bound.opt_power_lower_bound]. *)
  let parts r = (2. *. r.cheap_ms) +. r.rr_ms +. r.srpt_ms +. r.lp_ms in
  metric "certify.closure" (median (fun r -> parts r /. whole_ms r));
  metric "certify.minor_words" (median (fun r -> r.whole.words));
  metric "certify.major_collections" (median (fun r -> Float.of_int r.whole.majors));
  Temporal_fairness.Cache.clear ();
  Affinity.unpin ();
  let (pool_ms, cp), speed =
    Temporal_fairness.Pool.with_pool ~domains:2 (fun pool ->
        at_speed (fun () -> timed_ms "certify.pool2" (fun () -> Certify.certify ~pool inst)))
  in
  let ratio = (fst (List.hd rounds)).ratio in
  Outcome.check (cp.ratio = ratio)
    "certify: the 2-domain ratio %.17g differs from sequential %.17g" cp.ratio ratio;
  metric "certify.pool2_speedup" (total_ms /. (pool_ms *. speed))
