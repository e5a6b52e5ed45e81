(* The classification layer's outward guarantees:

   - every policy the registry ships is classified, and the README's
     engine-coverage table names each one with its class description and
     kernel audit string — regenerated here from the registry so the
     docs cannot go stale;
   - the starvation-mitigation hybrid reproduces Kuo's l2/l1 tradeoff:
     as theta sweeps up the l1 cost (vs SRPT) falls monotonically to 1,
     the max-flow tail grows toward SRPT's, and the theta -> infinity
     endpoint is SRPT itself. *)

open Temporal_fairness
module Policy = Rr_engine.Policy
module Policy_class = Rr_engine.Policy_class
module Registry = Rr_policies.Registry

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* README coverage table                                               *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Under [dune runtest] the cwd is [_build/default/test] and the stanza
   declares the README as a dependency, so the parent copy is current;
   under [dune exec] the cwd is the workspace root.  Probe upwards. *)
let readme_path =
  let candidates =
    [ "README.md"; Filename.concat Filename.parent_dir_name "README.md" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> List.nth candidates 1

let surface_name spec =
  match String.split_on_char ':' (Registry.spec_to_string spec) with
  | name :: _ -> name
  | [] -> assert false

let test_registry_fully_classified () =
  List.iter
    (fun spec ->
      let policy = Registry.make spec in
      match policy.Policy.klass with
      | Some klass ->
          Alcotest.(check bool)
            (policy.Policy.name ^ " clairvoyance agrees with its class")
            policy.Policy.clairvoyant (Policy_class.clairvoyant klass)
      | None ->
          Alcotest.failf "registry policy %s (%s) is unclassified" policy.Policy.name
            (Registry.spec_to_string spec))
    (Registry.default_specs ())

let test_readme_coverage_table () =
  let readme = read_file readme_path in
  List.iter
    (fun spec ->
      let policy = Registry.make spec in
      let klass = Option.get policy.Policy.klass in
      let name = surface_name spec in
      let row_cell what s =
        Alcotest.(check bool)
          (Printf.sprintf "README names %s of %s (%S)" what name s)
          true (contains ~sub:s readme)
      in
      row_cell "the policy" ("`" ^ name ^ "`");
      row_cell "the class" (Policy_class.describe klass);
      row_cell "the engine" ("`" ^ Policy_class.engine_name klass ^ "`"))
    (Registry.default_specs ())

(* ------------------------------------------------------------------ *)
(* Hybrid l2/l1 tradeoff (Kuo)                                         *)
(* ------------------------------------------------------------------ *)

let heavy_instance ~seed ~n =
  let rng = Rr_util.Prng.create ~seed in
  Rr_workload.Instance.generate_load ~rng
    ~sizes:(Rr_workload.Distribution.Bounded_pareto { alpha = 1.5; x_min = 0.5; x_max = 50. })
    ~load:0.9 ~machines:1 ~n ()

let test_hybrid_tradeoff_monotone () =
  let inst = heavy_instance ~seed:83 ~n:400 in
  let cfg = Run.config ~machines:1 ~k:2 ~cache:false () in
  let srpt = Run.measure cfg Rr_policies.Srpt.policy inst in
  let thetas = [ 0.25; 1.; 4.; 32.; 256. ] in
  let runs =
    List.map (fun theta -> Run.measure cfg (Rr_policies.Hybrid.policy ~theta ()) inst) thetas
  in
  (* The l1 premium over SRPT decays monotonically as theta loosens the
     starvation guard (2% slack absorbs simulation noise on one
     instance). *)
  ignore
    (List.fold_left
       (fun (prev_theta, prev) (theta, r) ->
         let v = r.Run.mean_flow /. srpt.Run.mean_flow in
         if v > prev *. 1.02 then
           Alcotest.failf "l1 ratio rose from %.6f (theta=%g) to %.6f (theta=%g)" prev prev_theta
             v theta;
         (theta, v))
       (0., Float.infinity)
       (List.combine thetas runs));
  (* The l2 curve is not monotone — it dips below 1 at moderate theta
     (protecting the starved tail beats SRPT on the l2 norm, the
     phenomenon the lk objective arbitrates) before returning to 1. *)
  let l2_min =
    List.fold_left (fun acc r -> Float.min acc (r.Run.norm /. srpt.Run.norm)) Float.infinity runs
  in
  Alcotest.(check bool) "some theta beats SRPT on l2" true (l2_min < 1.);
  (* Tight theta buys a shorter tail than SRPT's; the price is l1. *)
  let tight = List.hd runs in
  Alcotest.(check bool) "theta=0.25 shortens the max-flow tail" true
    (tight.Run.max_flow < srpt.Run.max_flow);
  Alcotest.(check bool) "theta=0.25 pays for it in l1" true
    (tight.Run.mean_flow > srpt.Run.mean_flow);
  (* theta -> infinity is SRPT: no job ever crosses the stretch
     threshold inside the horizon, so the runs coincide. *)
  let limit = Run.measure cfg (Rr_policies.Hybrid.policy ~theta:1e9 ()) inst in
  let close what a b =
    let rel = Float.abs (a -. b) /. Float.max 1e-12 (Float.abs b) in
    Alcotest.(check bool) (what ^ " matches SRPT at huge theta") true (rel <= 1e-9)
  in
  close "l1" limit.Run.mean_flow srpt.Run.mean_flow;
  close "l2" limit.Run.norm srpt.Run.norm;
  close "max flow" limit.Run.max_flow srpt.Run.max_flow

(* ------------------------------------------------------------------ *)
(* The tabled MLFQ ladder against the reference recursions             *)
(* ------------------------------------------------------------------ *)

(* The dense MLFQ kernel reads levels and thresholds off
   [Policy_class.ladder_table] and moves each job's level forward from a
   cached one; the mirror policy recomputes them with [ladder_level] /
   [ladder_threshold] from level 0.  Both must give bit-identical answers
   at every band edge, or the two engines could classify a promotion
   landing differently. *)
let ladder_params =
  [
    (0.5, 2., 24);  (* the registry default *)
    (0.5, 1., 24);  (* factor 1: equal quanta *)
    (0.5, 2., 1);  (* a single, absorbing level *)
    (1e-10, 2., 24);  (* band 0 negative: a fresh job sits above level 0 *)
    (1e-10, 1., 24);
    (3., 1.5, 7);
  ]

let bits = Int64.bits_of_float

let test_ladder_table_matches_reference () =
  List.iter
    (fun (base_quantum, factor, levels) ->
      let name = Printf.sprintf "q=%g f=%g levels=%d" base_quantum factor levels in
      let t = Policy_class.ladder_table ~base_quantum ~factor ~levels in
      let reference a = Policy_class.ladder_level ~base_quantum ~factor ~levels a in
      Alcotest.(check int) (name ^ ": one entry per non-absorbing level") (levels - 1)
        (Array.length t.Policy_class.thresholds);
      Alcotest.(check int) (name ^ ": one band per threshold") (levels - 1)
        (Array.length t.Policy_class.bands);
      Array.iteri
        (fun l thr ->
          let want = Policy_class.ladder_threshold ~base_quantum ~factor l in
          if bits thr <> bits want then
            Alcotest.failf "%s: threshold %d is %.17g, reference %.17g" name l thr want;
          let band = t.Policy_class.bands.(l) in
          if bits band <> bits (thr -. (1e-9 *. (1. +. thr))) then
            Alcotest.failf "%s: band %d is %.17g" name l band)
        t.Policy_class.thresholds;
      (* Every band and threshold, one ulp either side of each, and the
         ends of the range. *)
      let probes =
        [ 0.; Float.min_float; 1e300 ]
        @ List.concat_map
            (fun x -> [ Float.pred x; x; Float.succ x ])
            (Array.to_list t.Policy_class.bands @ Array.to_list t.Policy_class.thresholds)
        |> List.filter (fun a -> a >= 0.)
        |> List.sort_uniq Float.compare
      in
      List.iter
        (fun a ->
          let want = reference a in
          (* From every cached level at or below the answer. *)
          for from = 0 to want do
            let got = Policy_class.table_level t ~from a in
            if got <> want then
              Alcotest.failf "%s: attained %.17g from level %d gives %d, reference %d" name a
                from got want
          done)
        probes;
      (* Along a non-decreasing attained sequence, carrying the cached
         level forward exactly as the kernel does. *)
      let cached = ref 0 in
      List.iter
        (fun a ->
          cached := Policy_class.table_level t ~from:!cached a;
          if !cached <> reference a then
            Alcotest.failf "%s: cached scan at %.17g gives %d, reference %d" name a !cached
              (reference a))
        probes;
      if base_quantum = 1e-10 then begin
        Alcotest.(check bool) (name ^ ": band 0 is negative") true (t.Policy_class.bands.(0) < 0.);
        Alcotest.(check bool) (name ^ ": a fresh job sits above level 0") true (reference 0. > 0);
        Alcotest.(check int) (name ^ ": fresh job level") (reference 0.)
          (Policy_class.table_level t ~from:0 0.)
      end)
    ladder_params

let () =
  Alcotest.run "rr_classes"
    [
      ( "coverage",
        [
          Alcotest.test_case "registry fully classified" `Quick test_registry_fully_classified;
          Alcotest.test_case "README table complete" `Quick test_readme_coverage_table;
        ] );
      ( "hybrid",
        [ Alcotest.test_case "l2/l1 tradeoff vs theta" `Quick test_hybrid_tradeoff_monotone ] );
      ( "ladder",
        [
          Alcotest.test_case "table matches ladder_level/ladder_threshold" `Quick
            test_ladder_table_matches_reference;
        ] );
    ]
