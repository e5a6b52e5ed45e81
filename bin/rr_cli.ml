(* Command-line front end for the temporal_fairness library.

   Subcommands:
     generate    sample an instance and write it as CSV
     simulate    run one policy on an instance and print flow statistics
     compare     run several policies on an instance, one table row each
     certify     build the dual-fitting certificate for RR on an instance
     lowerbound  certified LP lower bound on the optimal lk norm
     crossover   bracket search for the minimal competitive RR speed
     experiments run the full evaluation suite (DESIGN.md T1-T8/F1-F3)

   Parallelism: --jobs N (or the RR_JOBS environment variable) runs the
   embarrassingly parallel subcommands on a Temporal_fairness.Pool of N
   domains; results are bit-identical to a sequential run.               *)

open Cmdliner
module Pool = Temporal_fairness.Pool
module Run = Temporal_fairness.Run

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let machines_arg =
  Arg.(value & opt int 1 & info [ "m"; "machines" ] ~docv:"M" ~doc:"Number of identical machines.")

let speed_arg =
  Arg.(value & opt float 1. & info [ "s"; "speed" ] ~docv:"S" ~doc:"Resource-augmentation speed.")

let k_arg = Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"Norm index k of the lk objective.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let n_arg = Arg.(value & opt int 100 & info [ "n" ] ~docv:"N" ~doc:"Number of jobs to generate.")

let load_arg =
  Arg.(value & opt float 0.9 & info [ "load" ] ~docv:"RHO" ~doc:"Offered load for generated instances.")

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"FILE" ~doc:"Instance CSV (header 'arrival,size'); generated when omitted.")

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some j when j >= 0 -> Ok j
    | _ -> Error (`Msg "JOBS must be a non-negative integer (0 = all recommended cores)")
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt jobs_conv 1
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~env:(Cmd.Env.info "RR_JOBS" ~doc:"Default worker-domain count for $(b,--jobs).")
        ~doc:
          "Worker domains to run independent simulations on (0 means all recommended cores; \
           values above the CPU count are clamped and the effective width is printed). \
           Results are bit-identical to a sequential run.")

(* --jobs is clamped to the CPU count: a pool wider than the machine
   only adds contention (on a 1-CPU box a 4-domain pool loses to the
   plain sequential loop), so the effective width is min(jobs, cpus) and
   a width of 1 degrades to the caller-only pool — sequential semantics,
   no worker domains.  The effective width prints to stderr whenever
   parallelism was requested, so scripted runs can see what actually
   executed. *)
let with_jobs jobs f =
  let cpus = Pool.recommended_domains () in
  let requested = if jobs = 0 then cpus else jobs in
  let domains = Int.max 1 (Int.min requested cpus) in
  if requested > 1 then
    Printf.eprintf "rr_cli: --jobs %d -> %s%s\n%!" requested
      (if domains <= 1 then "sequential" else Printf.sprintf "domains:%d" domains)
      (if domains < requested then Printf.sprintf " (clamped: %d CPU(s))" cpus else "");
  Pool.with_pool ~domains f

let chunk_conv =
  let parse s =
    if String.equal s "auto" then Ok `Auto
    else
      match int_of_string_opt s with
      | Some c when c >= 1 -> Ok (`Fixed c)
      | _ -> Error (`Msg "CHUNK must be 'auto' or a positive integer")
  in
  let print ppf = function
    | `Auto -> Format.pp_print_string ppf "auto"
    | `Fixed c -> Format.pp_print_int ppf c
  in
  Arg.conv (parse, print)

let chunk_arg =
  Arg.(
    value
    & opt chunk_conv `Auto
    & info [ "chunk" ] ~docv:"CHUNK"
        ~doc:
          "Tasks per steal unit on the $(b,--jobs) pool: $(b,auto) groups tasks into ~1 ms \
           chunks by estimated cost, an integer fixes the group size.  Chunking never \
           changes results, only scheduling granularity.")

let engine_conv =
  let parse s =
    match Run.engine_of_string s with
    | Some e -> Ok e
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown engine %S; expected one of: %s" s
               (String.concat ", " Run.engine_strings)))
  in
  let print ppf e = Format.pp_print_string ppf (Run.engine_to_string e) in
  Arg.conv (parse, print)

let engine_arg =
  Arg.(
    value
    & opt engine_conv `Auto
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          (Printf.sprintf
             "Engine selection: %s.  $(b,auto) (the default) dispatches every policy \
              that declares a class to its specialised kernel (RR's equal-share cascade, \
              the SRPT/SJF/FCFS/HDF priority index, the SETF group cascade, the \
              LAPS/MLFQ/quantum/WRR dense kernels, the starvation-hybrid and \
              migration-budget kernels — each agrees with the general loop to ~1e-9 \
              relative flow time but is several times faster) and runs unclassified \
              policies on the general event loop; $(b,general) forces the general loop \
              everywhere (reproduces archived general-loop numbers bit-exactly); \
              $(b,closed) insists on the specialised kernel and fails on an unclassified \
              policy; $(b,live) routes classified policies through the incremental \
              submit-while-running core that $(b,rr_cli serve) uses (and fails on an \
              unclassified policy too)."
             (String.concat " | " (List.map (Printf.sprintf "$(b,%s)") Run.engine_strings))))

let print_cache_stats () =
  let st = Temporal_fairness.Cache.stats () in
  Format.printf
    "cache: %d hits (%d coalesced in flight) / %d misses, %d evictions, %d/%d entries across \
     %d shards@."
    st.hits st.coalesced st.misses st.evictions st.size st.capacity (Array.length st.shards)

let cache_stats_arg =
  Arg.(
    value
    & flag
    & info [ "cache-stats" ]
        ~doc:
          "Print the result cache's counters on exit: hits (including lookups coalesced \
           into another domain's in-flight computation), misses (= simulations actually \
           run), evictions, occupancy and shard count.")

let no_cache_arg =
  Arg.(
    value
    & flag
    & info [ "no-cache" ]
        ~doc:"Do not memoise simulation measurements in the process-wide result cache.")

let dist_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "exp"; m ] -> (
        match float_of_string_opt m with
        | Some mean when mean > 0. -> Ok (Rr_workload.Distribution.Exponential { mean })
        | _ -> Error (`Msg "exp:<mean> needs a positive float"))
    | [ "det"; p ] -> (
        match float_of_string_opt p with
        | Some v when v > 0. -> Ok (Rr_workload.Distribution.Deterministic v)
        | _ -> Error (`Msg "det:<size> needs a positive float"))
    | [ "uniform"; lo; hi ] -> (
        match (float_of_string_opt lo, float_of_string_opt hi) with
        | Some lo, Some hi when 0. < lo && lo <= hi ->
            Ok (Rr_workload.Distribution.Uniform { lo; hi })
        | _ -> Error (`Msg "uniform:<lo>:<hi> needs 0 < lo <= hi"))
    | [ "bpareto"; a; lo; hi ] -> (
        match (float_of_string_opt a, float_of_string_opt lo, float_of_string_opt hi) with
        | Some alpha, Some x_min, Some x_max when alpha > 0. && 0. < x_min && x_min < x_max ->
            Ok (Rr_workload.Distribution.Bounded_pareto { alpha; x_min; x_max })
        | _ -> Error (`Msg "bpareto:<alpha>:<min>:<max> malformed"))
    | _ -> Error (`Msg (Printf.sprintf "unknown size distribution %S" s))
  in
  let print ppf d = Format.pp_print_string ppf (Rr_workload.Distribution.name d) in
  Arg.conv (parse, print)

let sizes_arg =
  Arg.(
    value
    & opt dist_conv (Rr_workload.Distribution.Exponential { mean = 1. })
    & info [ "sizes" ] ~docv:"DIST"
        ~doc:"Size distribution: exp:<mean>, det:<size>, uniform:<lo>:<hi>, bpareto:<a>:<min>:<max>.")

(* The typed registry parses the policy syntax and reports exactly what
   was malformed; the valid forms are enumerated from the registry so the
   help text cannot drift. *)
let policy_conv =
  let parse s =
    match Rr_policies.Registry.spec_of_string s with
    | Ok spec -> Ok (Rr_policies.Registry.make spec)
    | Error msg -> Error (`Msg msg)
  in
  let print ppf (p : Rr_engine.Policy.t) = Format.pp_print_string ppf p.name in
  Arg.conv (parse, print)

let policy_arg =
  Arg.(
    value
    & opt policy_conv Rr_policies.Round_robin.policy
    & info [ "p"; "policy" ] ~docv:"POLICY"
        ~doc:
          (Printf.sprintf "Scheduling policy, one of: %s."
             (String.concat ", " (Rr_policies.Registry.names ()))))

let load_instance ~file ~seed ~sizes ~load ~machines ~n =
  match file with
  | Some path -> Rr_workload.Trace_io.load ~path
  | None ->
      let rng = Rr_util.Prng.create ~seed in
      Rr_workload.Instance.generate_load ~rng ~sizes ~load ~machines ~n ()

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let run seed sizes load machines n out =
    let rng = Rr_util.Prng.create ~seed in
    let inst = Rr_workload.Instance.generate_load ~rng ~sizes ~load ~machines ~n () in
    match out with
    | Some path ->
        Rr_workload.Trace_io.save ~path inst;
        Printf.printf "wrote %d jobs to %s\n" (Rr_workload.Instance.n inst) path
    | None -> print_string (Rr_workload.Trace_io.to_string inst)
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output CSV path.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Sample a Poisson instance at a target load and print/write it as CSV.")
    Term.(const run $ seed_arg $ sizes_arg $ load_arg $ machines_arg $ n_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

(* Peak resident set from the kernel's accounting, when the platform
   exposes it (Linux). *)
let vmhwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception _ -> None
  | txt ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; rest ] -> (
              match String.split_on_char ' ' (String.trim rest) with
              | kb :: _ -> int_of_string_opt kb
              | [] -> None)
          | _ -> None)
        (String.split_on_char '\n' txt)

let simulate_streamed ~policy ~machines ~speed ~k ~seed ~sizes ~load ~n ~engine =
  let stream = Rr_workload.Instance.Stream.generate_load ~seed ~sizes ~load ~machines ~n () in
  let cfg = Run.config ~machines ~speed ~k ~engine () in
  let agg = Rr_metrics.Sink.pair (Rr_metrics.Flow_stats.sink ()) (Rr_metrics.Sink.lk ~k ()) in
  let bytes_before = Gc.allocated_bytes () in
  let summary = Run.simulate_stream cfg policy stream ~sink:(Rr_metrics.Sink.feed agg) in
  let allocated_words = (Gc.allocated_bytes () -. bytes_before) /. 8. in
  Format.printf "stream %s (never materialized)@." (Rr_workload.Instance.Stream.label stream);
  Format.printf
    "policy %s [engine %s] at speed %g on %d machine(s): %d jobs, %d events, makespan %g, \
     peak alive %d@."
    policy.Rr_engine.Policy.name (Run.engine_name cfg policy) speed machines
    summary.Rr_engine.Simulator.n summary.Rr_engine.Simulator.events
    summary.Rr_engine.Simulator.makespan summary.Rr_engine.Simulator.max_alive;
  if summary.Rr_engine.Simulator.n > 0 then begin
    let stats, norm = Rr_metrics.Sink.value agg in
    Format.printf "%a  (p50/p90/p99 are P-squared sketch estimates)@." Rr_metrics.Flow_stats.pp
      stats;
    Format.printf "l%d norm: %g@." k norm
  end;
  let heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  Format.printf "memory: %.3g words allocated (%.1f words/job), top heap %d words%s@."
    allocated_words
    (if n = 0 then 0. else allocated_words /. Float.of_int n)
    heap_words
    (match vmhwm_kb () with
    | Some kb -> Printf.sprintf ", peak RSS %d kB" kb
    | None -> "")

let simulate_cmd =
  let run policy machines speed k file seed sizes load n engine stream =
    if stream then begin
      if Option.is_some file then begin
        prerr_endline
          "rr_cli: --stream generates its workload lazily; it cannot be combined with --file";
        exit 2
      end;
      simulate_streamed ~policy ~machines ~speed ~k ~seed ~sizes ~load ~n ~engine
    end
    else begin
      let inst = load_instance ~file ~seed ~sizes ~load ~machines ~n in
      let cfg = Run.config ~machines ~speed ~k ~record_trace:true ~engine () in
      let res = Run.simulate cfg policy inst in
      let flows = Rr_engine.Simulator.flows res in
      let stats = Rr_metrics.Flow_stats.of_flows flows in
      Format.printf "%a@." Rr_workload.Instance.pp inst;
      Format.printf "policy %s [engine %s] at speed %g on %d machine(s): %d events@."
        policy.Rr_engine.Policy.name (Run.engine_name cfg policy) speed machines res.events;
      Format.printf "%a@." Rr_metrics.Flow_stats.pp stats;
      Format.printf "l%d norm: %g  | time-weighted Jain index: %g@." k
        (Rr_metrics.Norms.lk ~k flows)
        (Rr_metrics.Fairness.time_weighted_jain res.trace)
    end
  in
  let stream_arg =
    Arg.(
      value
      & flag
      & info [ "stream" ]
          ~doc:
            "Generate the workload lazily and measure through the O(alive)-memory streaming \
             pipeline: no job list or flow vector is ever materialized, so -n 10000000 runs \
             in a near-constant heap.  Percentiles become P-squared sketch estimates; a \
             words-allocated / peak-heap / peak-RSS report is appended.  Incompatible with \
             $(b,--file).")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one policy on an instance and print its flow-time statistics.")
    Term.(
      const run $ policy_arg $ machines_arg $ speed_arg $ k_arg $ file_arg $ seed_arg $ sizes_arg
      $ load_arg $ n_arg $ engine_arg $ stream_arg)

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let run machines speed file seed sizes load n jobs chunk engine no_cache cache_stats =
    let inst = load_instance ~file ~seed ~sizes ~load ~machines ~n in
    let table =
      Rr_util.Table.create
        ~title:(Printf.sprintf "policies at speed %g, m = %d" speed machines)
        ~columns:[ "policy"; "engine"; "mean"; "max"; "l1"; "l2"; "jain" ]
    in
    (* k = 2 so the cached measurement's norm is the l2 column; the Jain
       index needs the full trace, which measurements never keep, so one
       traced re-simulation per row on top of the (cacheable) measure. *)
    let cfg = Run.config ~machines ~speed ~k:2 ~engine ~cache:(not no_cache) () in
    let traced = { cfg with Run.record_trace = true } in
    let rows =
      with_jobs jobs (fun pool ->
          Pool.map ~chunk pool
            (fun (policy : Rr_engine.Policy.t) ->
              let r = Run.measure cfg policy inst in
              let res = Run.simulate traced policy inst in
              [
                policy.name;
                Run.engine_name cfg policy;
                Rr_util.Table.fcell r.Run.mean_flow;
                Rr_util.Table.fcell r.Run.max_flow;
                Rr_util.Table.fcell (r.Run.mean_flow *. Float.of_int r.Run.n);
                Rr_util.Table.fcell r.Run.norm;
                Rr_util.Table.fcell (Rr_metrics.Fairness.time_weighted_jain res.trace);
              ])
            (Rr_policies.Registry.all ()))
    in
    List.iter (Rr_util.Table.add_row table) rows;
    Rr_util.Table.print table;
    if cache_stats then print_cache_stats ()
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run every built-in policy on one instance and tabulate the outcomes.")
    Term.(
      const run $ machines_arg $ speed_arg $ file_arg $ seed_arg $ sizes_arg $ load_arg $ n_arg
      $ jobs_arg $ chunk_arg $ engine_arg $ no_cache_arg $ cache_stats_arg)

(* ------------------------------------------------------------------ *)
(* certify                                                             *)
(* ------------------------------------------------------------------ *)

let certify_cmd =
  let run machines k eps file seed sizes load n engine =
    let inst = load_instance ~file ~seed ~sizes ~load ~machines ~n in
    let speed = Rr_dualfit.Certificate.theorem_speed ~k ~eps in
    let res =
      Run.simulate
        (Run.config ~machines ~speed ~k ~record_trace:true ~engine ())
        Rr_policies.Round_robin.policy inst
    in
    let cert = Rr_dualfit.Certificate.certify ~eps ~k res in
    Format.printf "%a@.%a@." Rr_workload.Instance.pp inst Rr_dualfit.Certificate.pp cert;
    if Rr_dualfit.Certificate.is_sound cert then
      Format.printf "certificate SOUND: RR^%d <= %g x OPT^%d on this instance@." k
        (2. *. cert.gamma /. cert.certified_ratio)
        k
    else Format.printf "certificate NOT sound on this instance@."
  in
  let eps_arg =
    Arg.(value & opt float 0.1 & info [ "eps" ] ~docv:"EPS" ~doc:"Analysis parameter in (0, 1/10].")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:"Run RR at the Theorem-1 speed and verify the paper's dual-fitting certificate.")
    Term.(
      const run $ machines_arg $ k_arg $ eps_arg $ file_arg $ seed_arg $ sizes_arg $ load_arg
      $ n_arg $ engine_arg)

(* ------------------------------------------------------------------ *)
(* lowerbound                                                          *)
(* ------------------------------------------------------------------ *)

let lowerbound_cmd =
  let run machines k delta tol file seed sizes load n =
    let inst = load_instance ~file ~seed ~sizes ~load ~machines ~n in
    let bound = Rr_lp.Lp_bound.opt_norm_lower_bound ~k ~machines ~delta inst in
    let itv = Rr_lp.Lp_bound.value_interval ~tol ~k ~machines inst in
    Format.printf "%a@.certified lower bound on the optimal l%d norm: %g (delta %g)@."
      Rr_workload.Instance.pp inst k bound delta;
    let gap =
      if itv.Rr_lp.Lp_bound.lo > 0. then
        (itv.Rr_lp.Lp_bound.hi -. itv.Rr_lp.Lp_bound.lo) /. itv.Rr_lp.Lp_bound.lo
      else 0.
    in
    Format.printf
      "certified LP value interval: [%g, %g] (rel gap %.2g%%, converged at delta %g, %d \
       solves)@."
      itv.Rr_lp.Lp_bound.lo itv.Rr_lp.Lp_bound.hi (100. *. gap) itv.Rr_lp.Lp_bound.delta
      itv.Rr_lp.Lp_bound.solves;
    Format.printf "interval-certified norm bound: %g@."
      ((itv.Rr_lp.Lp_bound.lo /. 2.) ** (1. /. Float.of_int k))
  in
  let delta_arg =
    Arg.(
      value
      & opt float Rr_lp.Lp_bound.default_delta
      & info [ "delta" ] ~docv:"D" ~doc:"Time-slot width for the point-bound LP discretisation.")
  in
  let tol_arg =
    Arg.(
      value
      & opt float Rr_lp.Lp_bound.default_tol
      & info [ "tol" ] ~docv:"TOL"
          ~doc:
            "Relative width at which the adaptive [Slot_start, Slot_end] interval stops \
             refining; the reported bracket certifies the continuous LP value to this \
             tolerance.")
  in
  Cmd.v
    (Cmd.info "lowerbound"
       ~doc:
         "Certified LP lower bound on the optimal lk norm of flow time, with an \
          interval-certified bracket refined adaptively to --tol.")
    Term.(
      const run $ machines_arg $ k_arg $ delta_arg $ tol_arg $ file_arg $ seed_arg $ sizes_arg
      $ load_arg $ n_arg)

(* ------------------------------------------------------------------ *)
(* crossover                                                           *)
(* ------------------------------------------------------------------ *)

let crossover_cmd =
  let run policy machines k theta lo hi iters file seed sizes load n jobs engine
      no_cache cache_stats =
    let inst = load_instance ~file ~seed ~sizes ~load ~machines ~n in
    let f speed =
      Temporal_fairness.Ratio.vs_baseline
        (Run.config ~machines ~k ~speed ~engine ~cache:(not no_cache) ())
        policy inst
    in
    let result =
      with_jobs jobs (fun pool -> Temporal_fairness.Sweep.min_speed_for ~pool ~f ~threshold:theta ~lo ~hi ~iters ())
    in
    Format.printf "%a@." Rr_workload.Instance.pp inst;
    if cache_stats then print_cache_stats ();
    let name = policy.Rr_engine.Policy.name in
    match result with
    | Ok s ->
        Format.printf "minimal %s speed with l%d norm <= %g x SRPT@1: %g@." name k theta s
    | Error `Above_hi ->
        Format.printf "no crossover at or below speed %g (%s's l%d ratio stays above %g)@." hi
          name k theta
    | Error (`Bad_bracket msg) ->
        Format.eprintf "invalid bracket: %s@." msg;
        exit 2
  in
  let theta_arg =
    Arg.(value & opt float 1.0 & info [ "theta" ] ~docv:"T" ~doc:"Target ratio against SRPT@1.")
  in
  let lo_arg = Arg.(value & opt float 1.0 & info [ "lo" ] ~docv:"LO" ~doc:"Bracket lower end.") in
  let hi_arg = Arg.(value & opt float 8.0 & info [ "hi" ] ~docv:"HI" ~doc:"Bracket upper end.") in
  let iters_arg =
    Arg.(value & opt int 12 & info [ "iters" ] ~docv:"I" ~doc:"Bracket-narrowing rounds.")
  in
  Cmd.v
    (Cmd.info "crossover"
       ~doc:
         "Bracket search for the smallest speed at which --policy's lk norm is within theta \
          of SRPT@1 (default policy rr; probes within a round run on the --jobs pool).")
    Term.(
      const run $ policy_arg $ machines_arg $ k_arg $ theta_arg $ lo_arg $ hi_arg $ iters_arg
      $ file_arg $ seed_arg $ sizes_arg $ load_arg $ n_arg $ jobs_arg $ engine_arg
      $ no_cache_arg $ cache_stats_arg)

(* ------------------------------------------------------------------ *)
(* gantt                                                               *)
(* ------------------------------------------------------------------ *)

let gantt_cmd =
  let run policy machines speed file seed sizes load n width engine =
    let inst = load_instance ~file ~seed ~sizes ~load ~machines ~n in
    let res =
      Run.simulate (Run.config ~machines ~speed ~record_trace:true ~engine ()) policy inst
    in
    let pieces = Rr_engine.Assignment.of_trace ~machines res.trace in
    (match Rr_engine.Assignment.validate ~machines pieces with
    | Ok () -> ()
    | Error e -> prerr_endline ("internal error: infeasible assignment: " ^ e));
    Format.printf "%a — %s at speed %g@." Rr_workload.Instance.pp inst
      policy.Rr_engine.Policy.name speed;
    print_string (Rr_engine.Assignment.render_gantt ~width ~machines pieces)
  in
  let width_arg =
    Arg.(value & opt int 100 & info [ "width" ] ~docv:"COLS" ~doc:"Chart width in characters.")
  in
  Cmd.v
    (Cmd.info "gantt"
       ~doc:
         "Render a policy's schedule as an ASCII Gantt chart (rate shares realised by \
          McNaughton's wrap-around rule).")
    Term.(
      const run $ policy_arg $ machines_arg $ speed_arg $ file_arg $ seed_arg $ sizes_arg
      $ load_arg $ n_arg $ width_arg $ engine_arg)

(* ------------------------------------------------------------------ *)
(* experiments                                                         *)
(* ------------------------------------------------------------------ *)

let experiments_cmd =
  let run quick jobs engine =
    let scale =
      if quick then Temporal_fairness.Experiments.Quick else Temporal_fairness.Experiments.Full
    in
    with_jobs jobs (fun pool ->
        List.iter Rr_util.Table.print (Temporal_fairness.Experiments.all ~engine ~pool scale))
  in
  let quick_arg = Arg.(value & flag & info [ "quick" ] ~doc:"Reduced instance sizes.") in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Run the full evaluation suite (tables T1-T8, figures F1-F3).")
    Term.(const run $ quick_arg $ jobs_arg $ engine_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

(* A long-running incremental simulation behind the serving layer
   (lib/serve): stdio keeps the original line protocol; a Unix socket
   gets the multiplexed event loop speaking either the binary framed
   protocol (PROTOCOL.md, the default) or the line protocol behind
   --proto text. *)
module Live = Rr_engine.Live

let proto_conv =
  let parse = function
    | "binary" -> Ok Rr_serve.Server.Binary
    | "text" -> Ok Rr_serve.Server.Text
    | s -> Error (`Msg (Printf.sprintf "unknown protocol %S; expected binary or text" s))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with Rr_serve.Server.Binary -> "binary" | Rr_serve.Server.Text -> "text")
  in
  Arg.conv (parse, print)

let proto_arg =
  Arg.(
    value
    & opt proto_conv Rr_serve.Server.Binary
    & info [ "proto" ] ~docv:"PROTO"
        ~doc:
          "Socket wire protocol: $(b,binary) (the default; the length-prefixed framed \
           protocol of PROTOCOL.md — batched submits, many concurrent clients) or \
           $(b,text) (the human-debuggable line protocol: one client at a time, extra \
           connections answered $(b,ERR busy)).  The stdio mode always speaks text.")

let serve_cmd =
  let run (policy : Rr_engine.Policy.t) machines speed k max_events socket proto =
    (* Every registry policy declares its class, and the class names the
       kernel the live engine runs. *)
    let klass = Option.get policy.klass in
    let engine = ref (Live.create ~machines ~speed ~k ~max_events (Live.Classified klass)) in
    match socket with
    | None -> ignore (Rr_serve.Session.run_channels engine stdin stdout : bool)
    | Some path -> Rr_serve.Server.run ~proto ~engine ~path ()
  in
  let spec_arg =
    Arg.(
      value
      & opt policy_conv Rr_policies.Round_robin.policy
      & info [ "p"; "policy" ] ~docv:"POLICY"
          ~doc:
            (Printf.sprintf
               "Policy driving the live engine, one of: %s.  The engine runs the kernel \
                of the policy's class at the given parameters (e.g. $(b,laps:0.25), \
                $(b,hybrid:5))."
               (String.concat ", " (Rr_policies.Registry.names ()))))
  in
  let max_events_arg =
    Arg.(
      value
      & opt int Run.default_max_events
      & info [ "max-events" ] ~docv:"N"
          ~doc:
            "Event budget; an ADVANCE that would exceed it answers ERR instead of \
             livelocking the daemon.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket instead of stdin/stdout.  The multiplexed \
             event loop serves many concurrent binary clients (or, under \
             $(b,--proto text), one line-protocol client at a time); the engine keeps \
             its state across client disconnects and the daemon exits on SHUTDOWN \
             (binary) / QUIT (text).")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Run one incremental (submit-while-running) simulation as a long-lived process.  \
         On stdin/stdout it speaks the human-debuggable line protocol below; with \
         $(b,--socket) it runs a single-threaded multiplexed event loop that by default \
         speaks the length-prefixed binary framed protocol specified byte-by-byte in \
         $(b,PROTOCOL.md) at the repository root (versioned handshake, batched submits, \
         many concurrent clients, write backpressure).  $(b,--proto text) keeps the line \
         protocol on the socket instead.  In every mode a faulting request (bad \
         arguments, exhausted event budget, unreadable snapshot) answers ERR and leaves \
         the session running; only protocol corruption closes a connection.";
      `S "TEXT PROTOCOL";
      `P
        "One request per line, one reply per line; replies start with OK or ERR.  \
         Trailing carriage returns are stripped, so telnet/netcat clients work as-is.";
      `I ("SUBMIT <arrival> <size>", "Queue one job; replies $(b,OK <id>) (dense ids 0, 1, 2, ... in submission order).  Arrivals must be non-decreasing and not in the simulated past.");
      `I ("ADVANCE <time>", "Process every completion/admission at or before <time> and move the clock exactly there; replies $(b,OK now=... completed=... alive=...).  $(b,ADVANCE inf) drains.");
      `I ("DRAIN", "Run until no job is alive or pending; replies $(b,OK now=... completed=...).");
      `I ("STATS", "One-line snapshot of the live metrics: jobs submitted/completed/alive/pending, clock, events, makespan, peak alive, mean/max flow, the Lk power sum and norm, and P-squared p50/p90/p99 estimates.");
      `I ("SNAPSHOT <path>", "Serialize the whole engine (clock, alive and pending jobs, metric accumulators) to <path>; replies $(b,OK).");
      `I ("RESTORE <path>", "Replace the engine with the one serialized at <path> (same build only); replies $(b,OK).");
      `I ("QUIT", "Reply $(b,OK bye) and exit the daemon.");
      `S "BINARY PROTOCOL";
      `P
        "The default on $(b,--socket).  Frames are an 8-byte header (opcode + \
         little-endian payload length) plus payload; a BATCH frame carries up to 65536 \
         submits in one syscall, and STATS replies are bit-exact IEEE-754 floats, so a \
         socket-fed run reproduces an in-process run byte for byte.  See \
         $(b,PROTOCOL.md) for the full frame layout, the handshake, and error \
         semantics, and $(b,rr_cli loadgen) for a ready-made client.";
    ]
  in
  Cmd.v
    (Cmd.info "serve" ~man
       ~doc:
         "Drive an incremental simulation as a daemon (line protocol on stdin/stdout; \
          binary framed or line protocol on a Unix socket).")
    Term.(
      const run $ spec_arg $ machines_arg $ speed_arg $ k_arg $ max_events_arg $ socket_arg
      $ proto_arg)

(* ------------------------------------------------------------------- *)
(* loadgen                                                             *)
(* ------------------------------------------------------------------- *)

let loadgen_cmd =
  let run socket proto clients batch n rate machines seed sizes load shutdown =
    let proto_tag =
      match proto with Rr_serve.Server.Binary -> `Binary | Rr_serve.Server.Text -> `Text
    in
    match
      Rr_serve.Loadgen.run ~path:socket ~proto:proto_tag ~clients ~batch ?rate ~machines
        ~seed ~sizes ~load ~shutdown ~n ()
    with
    | r ->
        let s = r.Rr_serve.Loadgen.final_stats in
        Printf.printf
          "proto=%s clients=%d batch=%d jobs=%d ops=%d replies=%d wall_s=%.3f\n" r.proto
          r.clients r.batch r.jobs r.ops r.replies r.wall_s;
        Printf.printf "achieved %.0f events/s\n" r.events_per_s;
        Printf.printf "latency_us p50=%.1f p90=%.1f p99=%.1f\n" r.lat_p50_us r.lat_p90_us
          r.lat_p99_us;
        Printf.printf
          "server submitted=%d completed=%d now=%.17g norm=%.17g mean_flow=%.17g\n"
          s.Rr_engine.Live.submitted s.completed s.now s.norm s.mean_flow
    | exception Rr_serve.Client.Server_error msg ->
        Printf.eprintf "rr_cli loadgen: server error: %s\n" msg;
        exit 1
  in
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket of the running $(b,rr_cli serve).")
  in
  let clients_arg =
    Arg.(
      value
      & opt int 1
      & info [ "clients" ] ~docv:"N"
          ~doc:
            "Connections to open (binary only): 1 feeder submitting jobs plus N-1 \
             concurrent STATS observers.  (Submissions stay on one connection because \
             arrivals must be globally non-decreasing.)")
  in
  let batch_arg =
    Arg.(
      value
      & opt int 512
      & info [ "batch" ] ~docv:"B"
          ~doc:"Jobs per BATCH frame (binary) or per ADVANCE round (text).")
  in
  let rate_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "rate" ] ~docv:"EV_PER_S"
          ~doc:"Cap offered load at this many wire events per second (default: unthrottled).")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ]
          ~doc:"Stop the server when done (SHUTDOWN frame / QUIT line) instead of \
                leaving it running.")
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replay a seed-replayable generated workload (same generator as $(b,rr_cli \
         generate)) against a running $(b,rr_cli serve --socket) daemon and report the \
         achieved wire throughput plus P-squared round-trip latency percentiles.  The \
         binary path ships jobs in BATCH frames; $(b,--proto text) drives the line \
         protocol one SUBMIT per line for comparison.";
    ]
  in
  Cmd.v
    (Cmd.info "loadgen" ~man
       ~doc:"Benchmark a running serve daemon: replay a generated workload over its socket.")
    Term.(
      const run $ socket_arg $ proto_arg $ clients_arg $ batch_arg $ n_arg $ rate_arg
      $ machines_arg $ seed_arg $ sizes_arg $ load_arg $ shutdown_arg)

let () =
  let man =
    [
      `S "EXIT CODES";
      `P "Beyond cmdliner's defaults (0 success, 124 CLI parse error):";
      `I ("3", "simulation event budget exhausted — the instance may be degenerate or the policy livelocked.");
      `I ("4", "a policy produced an invalid allocation (broken policy implementation).");
      `I ("125", "internal error.");
    ]
  in
  let info =
    Cmd.info "rr_cli" ~version:"1.0.0" ~man
      ~doc:"Round Robin temporal fairness: simulation, LP bounds and dual-fitting certificates."
  in
  let group =
    Cmd.group info
      [
        generate_cmd;
        simulate_cmd;
        compare_cmd;
        certify_cmd;
        lowerbound_cmd;
        crossover_cmd;
        gantt_cmd;
        experiments_cmd;
        serve_cmd;
        loadgen_cmd;
      ]
  in
  (* Distinguish the two simulator failure modes from generic crashes:
     an exhausted event budget (exit 3) usually means a degenerate
     instance or a livelocked policy, an invalid allocation (exit 4) a
     broken policy implementation. *)
  let rec code_of = function
    | Rr_engine.Simulator.Event_limit_exceeded { limit; now } ->
        Printf.eprintf
          "rr_cli: event budget exhausted: %d events processed by t = %g; the instance may \
           be degenerate or the policy livelocked\n"
          limit now;
        3
    | Rr_engine.Simulator.Invalid_allocation msg ->
        Printf.eprintf "rr_cli: policy produced an invalid allocation: %s\n" msg;
        4
    | Invalid_argument msg ->
        (* e.g. --engine closed with an unclassified policy: a usage
           error, not an internal one. *)
        Printf.eprintf "rr_cli: %s\n" msg;
        2
    (* A failure inside a pooled batch arrives wrapped with its task
       index; it means what the bare exception means. *)
    | Pool.Task_error (_, e) -> code_of e
    | e ->
        Printf.eprintf "rr_cli: internal error: %s\n" (Printexc.to_string e);
        125
  in
  let code = try Cmd.eval ~catch:false group with e -> code_of e in
  exit code
