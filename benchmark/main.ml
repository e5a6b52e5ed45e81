(* The repository benchmark.  One process per workload:

     main.exe --workload W --seed N --seconds S --trace 0|1 [--smoke]

   measures workload W for about S seconds on inputs made from seed N,
   checks the outputs, prints one "metric value unit" line per metric and
   then, as its last line, one JSON object {correct, attempted, failed,
   metrics}.  --trace 0 reports the end-to-end metrics of BENCHMARK.json,
   their times scaled to the reference box's speed (speed.ml), with the
   unscaled values and the speeds on "# " lines before them; --trace 1
   reports its per-layer metrics (see layers.ml) and writes the spans as
   _benchmark/trace-W.json.

     main.exe --seed N [--seconds S] [--trace 0|1] [--out FILE] [--smoke]

   re-executes itself once per workload, so heaps never mix, and prints
   "workload metric value unit" lines.  --smoke uses tiny sizes, runs
   every workload untraced and traced, and fails unless every metric of
   BENCHMARK.json is emitted and every check passes.

     main.exe compare --base A.json... --head B.json...
     main.exe reference

   compare result files of two commits; print the reference values the
   correctness checks read from reference.json. *)

let spec = Json.parse Spec_data.benchmark
let reference = Json.parse Spec_data.reference
let names key =
  List.map (fun m -> Json.to_str (Json.member "name" m)) (Json.to_list (Json.member key spec))
let workloads = names "workloads"

let unit_of name =
  List.concat_map (fun key -> Json.to_list (Json.member key spec)) [ "end_to_end"; "per_layer" ]
  |> List.find_map (fun m ->
         if Json.to_str (Json.member "name" m) = name then Some (Json.to_str (Json.member "unit" m))
         else None)
  |> Option.value ~default:"?"

(* ------------------------------------------------------------------ *)
(* Sizes                                                               *)
(* ------------------------------------------------------------------ *)

type sizes = {
  bulk_jobs : int;  (** jobs per wire-bulk rep *)
  warmup_jobs : int;  (** untimed wire-bulk warm-up *)
  open_rep_s : float;  (** seconds per wire-open rep *)
  offline_jobs : int;  (** jobs per kernel per shape per offline-mix rep *)
  certify_n : int;  (** jobs per certified instance *)
  ladder_jobs : int;  (** jobs per serving-ladder rung *)
  open_ladder_s : float;  (** seconds per open-loop ladder rung *)
}

let full =
  {
    bulk_jobs = 1_000_000;
    warmup_jobs = 500_000;
    open_rep_s = 0.5;
    offline_jobs = 50_000;
    certify_n = 1000;
    ladder_jobs = 1_000_000;
    open_ladder_s = 1.;
  }

let smoke =
  {
    bulk_jobs = 20_000;
    warmup_jobs = 2_000;
    open_rep_s = 0.1;
    offline_jobs = 2_000;
    certify_n = 60;
    ladder_jobs = 20_000;
    open_ladder_s = 0.05;
  }

(* ------------------------------------------------------------------ *)
(* End-to-end measurement of one workload                              *)
(* ------------------------------------------------------------------ *)

type e2e = { jobs_per_s : float; latency_p50_us : float; setup_s : float; peak_rss_mb : float }

(* What one timed rep yields, as measured. *)
type rep = {
  seconds : float;  (** timed wall time *)
  jobs : int;
  p50_s : float;  (** median latency of the workload's requests in this rep *)
  setup : float;  (** untimed preparation of this rep *)
  rss_mb : float;  (** peak RSS of the daemon child, if any *)
}

(* A rep and the machine's speed around it (see speed.ml): the mean of
   the readings taken just before and just after it. *)
type scaled = { rep : rep; speed : float }

(* Timed reps until [seconds] of timed work have run (at least one); rep
   [r] uses seed + r. *)
let reps ~seconds rep =
  let out = ref [] and total = ref 0. and r = ref 0 and before = ref (Speed.read ()) in
  while !r = 0 || !total < seconds do
    let x = rep !r in
    let after = Speed.read () in
    out := { rep = x; speed = (!before +. after) /. 2. } :: !out;
    before := after;
    total := !total +. x.seconds;
    incr r
  done;
  !out

(* Medians over reps of each rep's values, times scaled by its speed.  An
   open loop's throughput is the rate its schedule sets ([~rate_scaled:false]). *)
let summarize ?(rate_scaled = true) reps =
  let med f = Rr_util.Stats.median (Array.of_list (List.map f reps)) in
  let note name v = Printf.printf "# %s %.6g\n" name v in
  note "measured.jobs_per_s" (med (fun s -> Float.of_int s.rep.jobs /. s.rep.seconds));
  note "measured.latency_p50_us" (1e6 *. med (fun s -> s.rep.p50_s));
  note "measured.setup_s" (med (fun s -> s.rep.setup));
  note "speed" (med (fun s -> s.speed));
  note "reps" (Float.of_int (List.length reps));
  let rate_speed s = if rate_scaled then s.speed else 1. in
  {
    jobs_per_s = med (fun s -> Float.of_int s.rep.jobs /. (s.rep.seconds *. rate_speed s));
    latency_p50_us = 1e6 *. med (fun s -> s.rep.p50_s *. s.speed);
    setup_s = med (fun s -> s.rep.setup *. s.speed);
    peak_rss_mb =
      List.fold_left (fun acc s -> Float.max acc s.rep.rss_mb) (Procfs.sample 0).hwm_mb reps;
  }

let p50 buf = Rr_util.Stats.median (Stat.Buf.to_array buf)

let wire_rep (r : Wire.rep) buf =
  {
    seconds = r.wall_s;
    jobs = r.jobs;
    p50_s = p50 buf;
    setup = r.setup_s;
    rss_mb = r.server_after.hwm_mb;
  }

let measure z workload ~seed ~seconds =
  let reps = reps ~seconds in
  match workload with
  | "wire-bulk" ->
      ignore
        (Wire.bulk_rep ~seed ~jobs:z.warmup_jobs (Wire.samples ()) : Wire.rep);
      reps (fun r ->
          let s = Wire.samples () in
          let rep = Wire.bulk_rep ~seed:(seed + r) ~jobs:z.bulk_jobs s in
          if r = 0 then Wire.check_rep ~what:workload ~seed ~n:rep.jobs ~batch:Wire.bulk_batch rep;
          wire_rep rep s.round)
      |> summarize
  | "wire-open" ->
      ignore
        (Wire.open_rep ~seed ~rate:20_000. ~duration_s:(z.open_rep_s /. 4.) (Wire.samples ())
          : Wire.rep);
      reps (fun r ->
          let s = Wire.samples () in
          let rep = Wire.open_rep ~seed:(seed + r) ~rate:20_000. ~duration_s:z.open_rep_s s in
          if r = 0 then Wire.check_rep ~what:workload ~seed ~n:rep.jobs ~batch:Wire.open_batch rep;
          wire_rep rep s.frame)
      |> summarize ~rate_scaled:false
  | "offline-mix" ->
      let reps =
        reps (fun r ->
            let t0 = Stat.now_ns () in
            Gc.full_major ();
            let setup = Stat.seconds_since t0 in
            let cells = Offline.rep ~seed:(seed + r) ~n:z.offline_jobs in
            (* The rep is one request: a comparison waits for every kernel.
               The median over the twelve calls would jump between
               kernels whose costs differ tenfold. *)
            let seconds = List.fold_left (fun acc (c : Offline.cell) -> acc +. c.ns) 0. cells *. 1e-9 in
            { seconds; jobs = z.offline_jobs * List.length cells; p50_s = seconds; setup; rss_mb = 0. })
      in
      Offline.check_reference (Json.member "offline" reference);
      summarize reps
  | "certify" ->
      let reps =
        reps (fun r ->
            let t0 = Stat.now_ns () in
            Temporal_fairness.Cache.clear ();
            let inst = Certify.instance ~seed:(seed + r) ~n:z.certify_n in
            Gc.full_major ();
            let setup = Stat.seconds_since t0 in
            let t1 = Stat.now_ns () in
            let c = Certify.certify inst in
            let dt = Stat.seconds_since t1 in
            Outcome.attempt ();
            Certify.check_point ~what:(Printf.sprintf "certify rep %d" r) c;
            { seconds = dt; jobs = z.certify_n; p50_s = dt; setup; rss_mb = 0. })
      in
      Certify.check_reference (Json.member "certify" reference);
      summarize reps
  | w -> invalid_arg ("unknown workload " ^ w)

let emit_e2e e =
  Outcome.metric "setup_s" e.setup_s;
  Outcome.metric "jobs_per_s" e.jobs_per_s;
  Outcome.metric "latency_p50_us" e.latency_p50_us;
  Outcome.metric "peak_rss_mb" e.peak_rss_mb

(* A traced run: the workload untraced then traced for half the time
   each (their latency ratio is the tracing overhead), then the
   per-layer pass, then every span written out. *)
let traced z workload ~seed ~seconds =
  let plain = measure z workload ~seed ~seconds:(seconds /. 2.) in
  Span.on := true;
  let with_spans = measure z workload ~seed ~seconds:(seconds /. 2.) in
  Outcome.metric "trace.overhead_frac" ((with_spans.latency_p50_us /. plain.latency_p50_us) -. 1.);
  Outcome.metric "speed" (Speed.read ());
  Layers.serving ~seed ~n:z.ladder_jobs;
  Layers.open_loop ~seed ~duration_s:z.open_ladder_s;
  Layers.offline ~seed ~n:z.offline_jobs;
  Layers.certify ~seed ~n:z.certify_n;
  Outcome.metric "trace.spans" (Float.of_int (Span.count ()));
  Wire.ensure_out_dir ();
  Span.write_chrome (Printf.sprintf "%s/trace-%s.json" Wire.out_dir workload)

(* Print the metrics and the result object; every metric BENCHMARK.json
   lists for this mode must be present, and nothing else. *)
let report ~trace =
  let expected = names (if trace then "per_layer" else "end_to_end") in
  let got = !Outcome.metrics in
  List.iter
    (fun n -> if not (List.mem_assoc n got) then Outcome.fail "metric %s was not measured" n)
    expected;
  List.iter
    (fun (n, v) ->
      if not (List.mem n expected) then Outcome.fail "metric %s is not in BENCHMARK.json" n;
      if not (Float.is_finite v) then Outcome.fail "metric %s is not finite" n)
    got;
  let present = List.filter (fun n -> List.mem_assoc n got) expected in
  List.iter (fun n -> Printf.printf "%s %.6g %s\n" n (List.assoc n got) (unit_of n)) present;
  let ok = !Outcome.failed = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool ok);
            ("attempted", Json.Num (Float.of_int (max 1 !Outcome.attempted)));
            ("failed", Json.Num (Float.of_int !Outcome.failed));
            ( "metrics",
              Json.Obj
                (List.map
                   (fun n ->
                     let v = Json.Num (List.assoc n got) in
                     (n, Json.Obj [ ("value", v); ("unit", Json.Str (unit_of n)) ]))
                   present) );
          ]));
  ok

let run_workload z workload ~seed ~seconds ~trace =
  Printexc.record_backtrace true;
  if not (List.mem workload workloads) then begin
    Printf.eprintf "benchmark: unknown workload %S; expected one of: %s\n" workload
      (String.concat ", " workloads);
    exit 2
  end;
  Affinity.pin ();
  (try
     if trace then traced z workload ~seed ~seconds
     else emit_e2e (measure z workload ~seed ~seconds)
   with e ->
     Outcome.fail "%s raised %s\n%s" workload (Printexc.to_string e) (Printexc.get_backtrace ()));
  if not (report ~trace) then exit 1

(* ------------------------------------------------------------------ *)
(* All workloads, one re-executed process each                         *)
(* ------------------------------------------------------------------ *)

let child_result args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  let last = List.fold_left (fun _ l -> Some l) None lines in
  match (status, last) with
  | Unix.WEXITED 0, Some l -> Ok (Json.parse l)
  | _, Some l when String.length l > 0 && l.[0] = '{' -> Error (Some (Json.parse l))
  | _ -> Error None

let run_all ~smoke_mode ~seed ~seconds ~trace ~out =
  let modes = if smoke_mode then [ false; true ] else [ trace ] in
  let ok = ref true and results = ref [] in
  List.iter
    (fun t ->
      List.iter
        (fun w ->
          let args =
            [ "--workload"; w; "--seed"; string_of_int seed ]
            @ [ "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if t then "1" else "0") ]
            @ if smoke_mode then [ "--smoke" ] else []
          in
          let res =
            match child_result args with
            | Ok j -> j
            | Error j ->
                ok := false;
                Printf.eprintf "benchmark: workload %s (trace %b) failed\n%!" w t;
                Option.value j ~default:Json.Null
          in
          let metrics = Json.to_obj (Json.member "metrics" res) in
          if smoke_mode then
            Printf.printf "smoke: %s %s: %d metrics, %s\n%!" w
              (if t then "traced" else "untraced")
              (List.length metrics)
              (if Json.member "correct" res = Json.Bool true then "checks passed" else "FAILED")
          else
            List.iter
              (fun (m, v) ->
                Printf.printf "%s %s %.6g %s\n%!" w m (Json.to_num (Json.member "value" v))
                  (Json.to_str (Json.member "unit" v)))
              metrics;
          if t = trace then results := (w, res) :: !results)
        workloads)
    modes;
  (match out with
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("seed", Json.Num (Float.of_int seed));
                ("seconds", Json.Num seconds);
                ("trace", Json.Bool trace);
                ("workloads", Json.Obj (List.rev !results));
              ]));
      output_char oc '\n';
      close_out oc
  | None -> ());
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest -> exit (Compare.main ~spec rest)
  | [ _; "reference" ] ->
      (* Recompute the committed values on the inputs reference.json names. *)
      let input key =
        let field f = int_of_float (Json.to_num (Json.member f (Json.member key reference))) in
        (field "seed", field "n")
      in
      let (os, on), (cs, cn) = (input "offline", input "certify") in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("offline", Offline.reference_json ~seed:os ~n:on);
                ("certify", Certify.reference_json ~seed:cs ~n:cn);
              ]))
  | _ ->
      let workload = ref "" and seed = ref 1 and trace = ref 0 and smoke_mode = ref false in
      let seconds = ref (Json.to_num (Json.member "run_seconds" spec)) and out = ref None in
      let specs =
        [
          ("--workload", Arg.Set_string workload, "W run one workload in this process");
          ("--seed", Arg.Set_int seed, "N input seed (rep r uses N + r)");
          ("--seconds", Arg.Set_float seconds, "S timed seconds per workload");
          ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
          ("--smoke", Arg.Set smoke_mode, " tiny sizes, no timing claims");
          ("--out", Arg.String (fun p -> out := Some p), "FILE write all results as JSON");
        ]
      in
      Arg.parse specs
        (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
        "main.exe [--workload W] --seed N [--seconds S] [--trace 0|1] [--smoke] [--out FILE]\n\
         main.exe compare --base A.json... --head B.json...";
      if !trace <> 0 && !trace <> 1 then begin
        prerr_endline "benchmark: --trace takes 0 or 1";
        exit 2
      end;
      let z = if !smoke_mode then smoke else full in
      if !smoke_mode then Speed.share := 0.01;
      if !workload = "" then
        run_all ~smoke_mode:!smoke_mode ~seed:!seed
          ~seconds:(if !smoke_mode then 0. else !seconds)
          ~trace:(!trace = 1) ~out:!out
      else run_workload z !workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
