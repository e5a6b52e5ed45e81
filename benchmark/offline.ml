(* The offline path: [Run.measure_stream] (workload stream -> engine ->
   sink folds) over six kernels and two workload shapes, in process, with
   the result cache off.  It never touches lib/serve: a wire change should
   leave it unchanged, and a kernel change should show here first. *)

module Run = Temporal_fairness.Run
module Registry = Rr_policies.Registry
module Stream = Rr_workload.Instance.Stream

let kernels = [ "rr"; "srpt"; "setf"; "laps:0.5"; "mlfq"; "hybrid:3" ]

(* The metric-name spelling of a kernel: its policy name without the
   parameter. *)
let kernel_label spec = List.hd (String.split_on_char ':' spec)

type shape = { label : string; sizes : Rr_workload.Distribution.t; load : float; machines : int }

let shapes =
  [
    {
      label = "exp-m1";
      sizes = Rr_workload.Distribution.Exponential { mean = 1. };
      load = 0.9;
      machines = 1;
    };
    {
      label = "bpareto-m4";
      sizes = Rr_workload.Distribution.Bounded_pareto { alpha = 1.5; x_min = 1.; x_max = 1000. };
      load = 0.95;
      machines = 4;
    };
  ]

let policy spec =
  match Registry.spec_of_string spec with
  | Ok s -> Registry.make s
  | Error msg -> invalid_arg msg

let stream shape ~seed ~n =
  Stream.generate_load ~seed ~sizes:shape.sizes ~load:shape.load ~machines:shape.machines ~n ()

type cell = { kernel : string; shape : string; ns : float; words : float; result : Run.result }

(* One measured call: wall time and minor words around [Run.measure_stream]. *)
let measure ~kernel shape s =
  let cfg = Run.config ~machines:shape.machines ~cache:false () in
  let p = policy kernel in
  let w0 = Gc.minor_words () in
  let t0 = Stat.now_ns () in
  let result =
    Span.with_ ("Run.measure_stream." ^ kernel_label kernel) (fun () -> Run.measure_stream cfg p s)
  in
  let ns = Float.of_int (Stat.now_ns () - t0) in
  let words = Gc.minor_words () -. w0 in
  Outcome.attempt ();
  { kernel; shape = shape.label; ns; words; result }

(* One rep: every kernel on every shape, [n] jobs each. *)
let rep ~seed ~n =
  List.concat_map
    (fun shape ->
      let s = stream shape ~seed ~n in
      List.map (fun kernel -> measure ~kernel shape s) kernels)
    shapes

let cell_key c = Printf.sprintf "%s/%s" (kernel_label c.kernel) c.shape

(* Reference check: a fixed small input whose norm, events and mean flow
   are committed in reference.json. *)
let check_reference (refs : Json.t) =
  let seed = int_of_float (Json.to_num (Json.member "seed" refs)) in
  let n = int_of_float (Json.to_num (Json.member "n" refs)) in
  let expected = Json.member "results" refs in
  List.iter
    (fun c ->
      let e = Json.member (cell_key c) expected in
      let close field got =
        let want = Json.to_num (Json.member field e) in
        Float.abs (got -. want) <= 1e-9 *. Float.max 1e-300 (Float.abs want)
      in
      Outcome.check
        (close "norm" c.result.norm
        && close "events" (Float.of_int c.result.events)
        && close "mean_flow" c.result.mean_flow)
        "offline %s: norm %.17g events %d mean flow %.17g differ from the reference" (cell_key c)
        c.result.norm c.result.events c.result.mean_flow)
    (rep ~seed ~n)

let reference_json ~seed ~n =
  Json.Obj
    [
      ("seed", Json.Num (Float.of_int seed));
      ("n", Json.Num (Float.of_int n));
      ( "results",
        Json.Obj
          (List.map
             (fun c ->
               ( cell_key c,
                 Json.Obj
                   [
                     ("norm", Json.Num c.result.norm);
                     ("events", Json.Num (Float.of_int c.result.events));
                     ("mean_flow", Json.Num c.result.mean_flow);
                   ] ))
             (rep ~seed ~n)) );
    ]
