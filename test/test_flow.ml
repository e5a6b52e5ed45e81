(* Tests for the min-cost max-flow solver, including randomized
   cross-checks against the dense simplex on transportation problems. *)

open Rr_flow

let check_close ?(tol = 1e-6) msg a b = Alcotest.(check (float tol)) msg a b

(* ------------------------------------------------------------------ *)
(* Hand networks                                                       *)
(* ------------------------------------------------------------------ *)

let test_single_edge () =
  let net = Mcmf.create ~n_nodes:2 in
  let e = Mcmf.add_edge net ~src:0 ~dst:1 ~capacity:3. ~cost:2. in
  let { Mcmf.flow; cost } = Mcmf.solve net ~source:0 ~sink:1 in
  check_close "flow" 3. flow;
  check_close "cost" 6. cost;
  check_close "edge flow" 3. (Mcmf.flow_on net e)

let test_two_paths_prefers_cheap () =
  (* Two parallel 0->1 edges: cheap (cap 2, cost 1) and dear (cap 5, cost 10).
     Pushing 4 units: 2 cheap + 2 dear = 22. *)
  let net = Mcmf.create ~n_nodes:2 in
  let cheap = Mcmf.add_edge net ~src:0 ~dst:1 ~capacity:2. ~cost:1. in
  let dear = Mcmf.add_edge net ~src:0 ~dst:1 ~capacity:5. ~cost:10. in
  let { Mcmf.flow; cost } = Mcmf.solve ~max_flow:4. net ~source:0 ~sink:1 in
  check_close "flow" 4. flow;
  check_close "cost" 22. cost;
  check_close "cheap saturated" 2. (Mcmf.flow_on net cheap);
  check_close "dear partial" 2. (Mcmf.flow_on net dear)

let test_rerouting_via_residual () =
  (* Classic residual test: diamond where the greedy first path must be
     partially undone.  Nodes 0 (s), 1, 2, 3 (t).
     0->1 cap 1 cost 1, 0->2 cap 1 cost 2, 1->3 cap 1 cost 2,
     2->3 cap 1 cost 1, 1->2 cap 1 cost 0.
     Max flow 2 with min cost: 0->1->3 (3) + 0->2->3 (3) = 6. *)
  let net = Mcmf.create ~n_nodes:4 in
  ignore (Mcmf.add_edge net ~src:0 ~dst:1 ~capacity:1. ~cost:1.);
  ignore (Mcmf.add_edge net ~src:0 ~dst:2 ~capacity:1. ~cost:2.);
  ignore (Mcmf.add_edge net ~src:1 ~dst:3 ~capacity:1. ~cost:2.);
  ignore (Mcmf.add_edge net ~src:2 ~dst:3 ~capacity:1. ~cost:1.);
  ignore (Mcmf.add_edge net ~src:1 ~dst:2 ~capacity:1. ~cost:0.);
  let { Mcmf.flow; cost } = Mcmf.solve net ~source:0 ~sink:3 in
  check_close "flow" 2. flow;
  check_close "cost" 6. cost;
  Alcotest.(check bool) "optimality certificate" true (Mcmf.no_negative_cycle net)

let test_disconnected () =
  let net = Mcmf.create ~n_nodes:3 in
  ignore (Mcmf.add_edge net ~src:0 ~dst:1 ~capacity:1. ~cost:1.);
  let { Mcmf.flow; cost } = Mcmf.solve net ~source:0 ~sink:2 in
  check_close "no flow" 0. flow;
  check_close "no cost" 0. cost

let test_max_flow_cap () =
  let net = Mcmf.create ~n_nodes:2 in
  ignore (Mcmf.add_edge net ~src:0 ~dst:1 ~capacity:10. ~cost:1.);
  let { Mcmf.flow; _ } = Mcmf.solve ~max_flow:4. net ~source:0 ~sink:1 in
  check_close "respects max_flow" 4. flow

let test_validation () =
  let net = Mcmf.create ~n_nodes:2 in
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected rejection")
    [
      (fun () -> ignore (Mcmf.create ~n_nodes:0));
      (fun () -> ignore (Mcmf.add_edge net ~src:0 ~dst:5 ~capacity:1. ~cost:1.));
      (fun () -> ignore (Mcmf.add_edge net ~src:0 ~dst:1 ~capacity:(-1.) ~cost:1.));
      (fun () -> ignore (Mcmf.add_edge net ~src:0 ~dst:1 ~capacity:1. ~cost:(-1.)));
      (fun () -> ignore (Mcmf.add_edge net ~src:0 ~dst:1 ~capacity:Float.nan ~cost:1.));
      (fun () -> ignore (Mcmf.solve net ~source:0 ~sink:0));
      (fun () -> Mcmf.reserve net ~edges:(-1));
    ]

(* Routing from several sources: two jobs (nodes 0, 1) and two slots
   (2, 3) in front of the sink (4).  Slot 2 is cheap for both jobs but
   holds one unit; slot 3 costs job 0 two per unit and job 1 ten.  Job 0
   routes first and takes slot 2.  Job 1's only cheap path then runs
   1 -> 2, back along the reverse of 0 -> 2 (cancelling job 0's flow
   there) and 0 -> 3: cost 1 - 1 + 2 = 2 per unit, against 10 direct. *)
let test_second_source_cancels_first () =
  let net = Mcmf.create ~n_nodes:5 in
  let a_cheap = Mcmf.add_edge net ~src:0 ~dst:2 ~capacity:2. ~cost:1. in
  let a_dear = Mcmf.add_edge net ~src:0 ~dst:3 ~capacity:2. ~cost:2. in
  let b_cheap = Mcmf.add_edge net ~src:1 ~dst:2 ~capacity:2. ~cost:1. in
  let b_dear = Mcmf.add_edge net ~src:1 ~dst:3 ~capacity:2. ~cost:10. in
  ignore (Mcmf.add_edge net ~src:2 ~dst:4 ~capacity:1. ~cost:0.);
  ignore (Mcmf.add_edge net ~src:3 ~dst:4 ~capacity:5. ~cost:0.);
  let first = Mcmf.solve ~max_flow:1. net ~source:0 ~sink:4 in
  check_close "first flow" 1. first.Mcmf.flow;
  check_close "first cost" 1. first.Mcmf.cost;
  check_close "job 0 takes the cheap slot" 1. (Mcmf.flow_on net a_cheap);
  let both = Mcmf.resolve ~max_flow:1. net ~source:1 ~sink:4 in
  check_close "cumulative flow" 2. both.Mcmf.flow;
  check_close "cumulative cost" 3. both.Mcmf.cost;
  check_close "job 0 moved off the cheap slot" 0. (Mcmf.flow_on net a_cheap);
  check_close "job 0 on its second slot" 1. (Mcmf.flow_on net a_dear);
  check_close "job 1 on the cheap slot" 1. (Mcmf.flow_on net b_cheap);
  check_close "job 1 avoids its dear slot" 0. (Mcmf.flow_on net b_dear);
  Alcotest.(check bool) "optimality certificate" true (Mcmf.no_negative_cycle net)

(* ------------------------------------------------------------------ *)
(* Cross-check against the simplex on random transportation problems   *)
(* ------------------------------------------------------------------ *)

(* Random transportation instance: [supplies] at sources, [demands] at
   sinks with total demand >= total supply, full bipartite cost matrix. *)
let transportation_gen =
  QCheck2.Gen.(
    let* ns = int_range 1 4 in
    let* nd = int_range 1 4 in
    let* supplies = list_repeat ns (float_range 0.5 5.) in
    let* caps = list_repeat nd (float_range 1. 10.) in
    let* costs = list_repeat (ns * nd) (float_range 0. 9.) in
    return (supplies, caps, costs))

let solve_by_mcmf (supplies, caps, costs) =
  let ns = List.length supplies and nd = List.length caps in
  let total_supply = List.fold_left ( +. ) 0. supplies in
  let total_caps = List.fold_left ( +. ) 0. caps in
  if total_caps < total_supply then None
  else begin
    let net = Mcmf.create ~n_nodes:(ns + nd + 2) in
    let source = 0 and sink = ns + nd + 1 in
    List.iteri
      (fun i s -> ignore (Mcmf.add_edge net ~src:source ~dst:(1 + i) ~capacity:s ~cost:0.))
      supplies;
    List.iteri
      (fun j c ->
        ignore (Mcmf.add_edge net ~src:(1 + ns + j) ~dst:sink ~capacity:c ~cost:0.))
      caps;
    let costs = Array.of_list costs in
    for i = 0 to ns - 1 do
      for j = 0 to nd - 1 do
        ignore
          (Mcmf.add_edge net ~src:(1 + i) ~dst:(1 + ns + j) ~capacity:1e9
             ~cost:costs.((i * nd) + j))
      done
    done;
    let { Mcmf.flow; cost } = Mcmf.solve net ~source ~sink in
    if not (Mcmf.no_negative_cycle net) then None
    else if flow < total_supply -. 1e-6 then None
    else Some cost
  end

let solve_by_simplex (supplies, caps, costs) =
  let ns = List.length supplies and nd = List.length caps in
  let nvars = ns * nd in
  let objective = Array.of_list costs in
  let rows = ref [] in
  List.iteri
    (fun i s ->
      let row = Array.make nvars 0. in
      for j = 0 to nd - 1 do
        row.((i * nd) + j) <- 1.
      done;
      rows := (row, Rr_lp.Simplex.Ge, s) :: !rows)
    supplies;
  List.iteri
    (fun j c ->
      let row = Array.make nvars 0. in
      for i = 0 to ns - 1 do
        row.((i * nd) + j) <- 1.
      done;
      rows := (row, Rr_lp.Simplex.Le, c) :: !rows)
    caps;
  match Rr_lp.Simplex.solve { objective; rows = !rows } with
  | Rr_lp.Simplex.Optimal { objective; _ } -> Some objective
  | Rr_lp.Simplex.Infeasible | Rr_lp.Simplex.Unbounded -> None

let prop_mcmf_matches_simplex =
  QCheck2.Test.make ~name:"mcmf = simplex on transportation problems" ~count:150
    transportation_gen
    (fun inst ->
      match (solve_by_mcmf inst, solve_by_simplex inst) with
      | Some a, Some b -> Float.abs (a -. b) <= 1e-5 *. (1. +. Float.abs a)
      | None, None -> true
      | Some _, None | None, Some _ -> false)

let prop_flow_bounded_by_capacity =
  QCheck2.Test.make ~name:"per-edge flow within capacity" ~count:100
    QCheck2.Gen.(list_size (int_range 1 10) (float_range 0.1 5.))
    (fun caps ->
      let n = List.length caps in
      let net = Mcmf.create ~n_nodes:(n + 2) in
      let handles =
        List.mapi
          (fun i c ->
            ignore (Mcmf.add_edge net ~src:0 ~dst:(1 + i) ~capacity:c ~cost:(Float.of_int i));
            (Mcmf.add_edge net ~src:(1 + i) ~dst:(n + 1) ~capacity:c ~cost:0., c))
          caps
      in
      ignore (Mcmf.solve net ~source:0 ~sink:(n + 1));
      List.for_all (fun (e, c) -> Mcmf.flow_on net e <= c +. 1e-9) handles)

(* ------------------------------------------------------------------ *)
(* Warm-started resolves                                               *)
(* ------------------------------------------------------------------ *)

let test_consumed_raises () =
  let net = Mcmf.create ~n_nodes:2 in
  ignore (Mcmf.add_edge net ~src:0 ~dst:1 ~capacity:3. ~cost:2.);
  Alcotest.(check bool) "fresh network unsolved" false (Mcmf.solved net);
  ignore (Mcmf.solve net ~source:0 ~sink:1);
  Alcotest.(check bool) "solved flag set" true (Mcmf.solved net);
  Alcotest.check_raises "second cold solve refused"
    (Invalid_argument
       "Mcmf.solve: network already consumed (capacities hold the residual state of a \
        previous solve); build a fresh network, or use Mcmf.resolve to continue this one \
        after a perturbation")
    (fun () -> ignore (Mcmf.solve net ~source:0 ~sink:1))

let test_resolve_requires_solve () =
  let net = Mcmf.create ~n_nodes:2 in
  ignore (Mcmf.add_edge net ~src:0 ~dst:1 ~capacity:3. ~cost:2.);
  Alcotest.check_raises "resolve before solve refused"
    (Invalid_argument "Mcmf.resolve: network not solved yet; call Mcmf.solve first")
    (fun () -> ignore (Mcmf.resolve net ~source:0 ~sink:1))

(* Transportation network in the LP's shape — per-supplier arc costs
   non-decreasing in slot index, so adding the trailing slot range after a
   solve (the widening the sparse LP build performs) never creates a
   negative residual cycle.  The staged solve -> add_edge -> resolve
   cumulative outcome must match a cold solve of the full network. *)
let warm_gen =
  QCheck2.Gen.(
    let* ns = int_range 1 4 in
    let* nd = int_range 2 8 in
    let* split = int_range 1 (nd - 1) in
    let* supplies = list_repeat ns (float_range 0.5 5.) in
    let* caps = list_repeat nd (float_range 0.5 4.) in
    let* increments = list_repeat (ns * nd) (float_range 0. 3.) in
    return (supplies, caps, split, increments))

let prop_warm_resolve_equals_cold =
  QCheck2.Test.make ~name:"warm resolve = cold solve after widening" ~count:200 warm_gen
    (fun (supplies, caps, split, increments) ->
      let ns = List.length supplies and nd = List.length caps in
      let supplies = Array.of_list supplies and caps = Array.of_list caps in
      let increments = Array.of_list increments in
      let costs =
        Array.init ns (fun i ->
            let acc = ref 0. in
            Array.init nd (fun j ->
                acc := !acc +. increments.((i * nd) + j);
                !acc))
      in
      let source = 0 and sink = ns + nd + 1 in
      let build_base () =
        let net = Mcmf.create ~n_nodes:(ns + nd + 2) in
        Array.iteri
          (fun i s -> ignore (Mcmf.add_edge net ~src:source ~dst:(1 + i) ~capacity:s ~cost:0.))
          supplies;
        net
      in
      let add_slots net lo hi =
        for j = lo to hi - 1 do
          ignore (Mcmf.add_edge net ~src:(1 + ns + j) ~dst:sink ~capacity:caps.(j) ~cost:0.);
          for i = 0 to ns - 1 do
            ignore
              (Mcmf.add_edge net ~src:(1 + i) ~dst:(1 + ns + j) ~capacity:10.
                 ~cost:costs.(i).(j))
          done
        done
      in
      let cold = build_base () in
      add_slots cold 0 nd;
      let cold_out = Mcmf.solve cold ~source ~sink in
      let warm = build_base () in
      add_slots warm 0 split;
      ignore (Mcmf.solve warm ~source ~sink);
      add_slots warm split nd;
      let warm_out = Mcmf.resolve warm ~source ~sink in
      let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs b) in
      close warm_out.Mcmf.flow cold_out.Mcmf.flow
      && close warm_out.Mcmf.cost cold_out.Mcmf.cost
      && Mcmf.no_negative_cycle warm)

(* Supplies routed one at a time from their own nodes, in [order]:
   [solve ~max_flow] for the first, [resolve ~max_flow] for each later
   one.  Returns the routing step (to resolve a supply's leftover later),
   the cumulative outcome and each supply's unrouted leftover. *)
let route_each net ~sink ~supplies order =
  let leftover = Array.copy supplies in
  let out = ref { Mcmf.flow = 0.; cost = 0. } in
  let route i =
    let before = !out.Mcmf.flow in
    let go = if Mcmf.solved net then Mcmf.resolve else Mcmf.solve in
    out := go ~max_flow:leftover.(i) net ~source:i ~sink;
    leftover.(i) <- leftover.(i) -. (!out.Mcmf.flow -. before)
  in
  List.iter route order;
  (route, out, leftover)

(* A random order of [0 .. n-1], drawn from [seed]. *)
let shuffled n seed =
  let st = Random.State.make [| seed |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let prop_per_source_matches_super_source =
  QCheck2.Test.make ~name:"per-source routing = super-source solve = simplex" ~count:150
    QCheck2.Gen.(pair transportation_gen int)
    (fun (((supplies, caps, costs) as inst), seed) ->
      let ns = List.length supplies and nd = List.length caps in
      let total_supply = List.fold_left ( +. ) 0. supplies in
      match (solve_by_mcmf inst, solve_by_simplex inst) with
      | None, _ | _, None -> true
      | Some super, Some simplex ->
          (* Supply i is node i, demand j node ns + j, the sink ns + nd. *)
          let net = Mcmf.create ~n_nodes:(ns + nd + 1) in
          let sink = ns + nd in
          List.iteri
            (fun j c -> ignore (Mcmf.add_edge net ~src:(ns + j) ~dst:sink ~capacity:c ~cost:0.))
            caps;
          let costs = Array.of_list costs in
          for i = 0 to ns - 1 do
            for j = 0 to nd - 1 do
              ignore
                (Mcmf.add_edge net ~src:i ~dst:(ns + j) ~capacity:1e9
                   ~cost:costs.((i * nd) + j))
            done
          done;
          let _, out, _ =
            route_each net ~sink ~supplies:(Array.of_list supplies) (shuffled ns seed)
          in
          let { Mcmf.flow; cost } = !out in
          Float.abs (flow -. total_supply) <= 1e-9 *. (1. +. total_supply)
          && Float.abs (cost -. super) <= 1e-9 *. (1. +. Float.abs super)
          && Float.abs (cost -. simplex) <= 1e-5 *. (1. +. Float.abs simplex)
          && Mcmf.no_negative_cycle net)

(* The LP's widening guard with per-source routing: route every supply on
   the first [split] slots, add the rest, resolve each supply's leftover,
   and compare with a cold super-source solve of the full network.  Only
   instances whose slots can hold every supply compare: otherwise the
   super source chooses which supplies to leave unrouted. *)
let prop_per_source_widening_equals_cold =
  QCheck2.Test.make ~name:"per-source routing, widened and resolved = cold solve" ~count:200
    QCheck2.Gen.(pair warm_gen int)
    (fun ((supplies, caps, split, increments), seed) ->
      let ns = List.length supplies and nd = List.length caps in
      let supplies = Array.of_list supplies and caps = Array.of_list caps in
      let increments = Array.of_list increments in
      let total_supply = Array.fold_left ( +. ) 0. supplies in
      if Array.fold_left ( +. ) 0. caps < total_supply then true
      else begin
        let costs =
          Array.init ns (fun i ->
              let acc = ref 0. in
              Array.init nd (fun j ->
                  acc := !acc +. increments.((i * nd) + j);
                  !acc))
        in
        (* Supply i is node i, slot j node ns + j, the sink ns + nd; the
           cold network also has a super source, node ns + nd + 1. *)
        let sink = ns + nd in
        let add_slots net lo hi =
          for j = lo to hi - 1 do
            ignore (Mcmf.add_edge net ~src:(ns + j) ~dst:sink ~capacity:caps.(j) ~cost:0.);
            for i = 0 to ns - 1 do
              ignore
                (Mcmf.add_edge net ~src:i ~dst:(ns + j) ~capacity:10. ~cost:costs.(i).(j))
            done
          done
        in
        let cold = Mcmf.create ~n_nodes:(ns + nd + 2) in
        let source = ns + nd + 1 in
        Array.iteri
          (fun i s -> ignore (Mcmf.add_edge cold ~src:source ~dst:i ~capacity:s ~cost:0.))
          supplies;
        add_slots cold 0 nd;
        let cold_out = Mcmf.solve cold ~source ~sink in
        let warm = Mcmf.create ~n_nodes:(ns + nd + 1) in
        add_slots warm 0 split;
        let order = shuffled ns seed in
        let route, warm_out, leftover = route_each warm ~sink ~supplies order in
        add_slots warm split nd;
        List.iter
          (fun i -> if leftover.(i) > 1e-12 *. (1. +. supplies.(i)) then route i)
          order;
        let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs b) in
        close !warm_out.Mcmf.flow cold_out.Mcmf.flow
        && close !warm_out.Mcmf.cost cold_out.Mcmf.cost
        && Mcmf.no_negative_cycle warm
      end)

(* ------------------------------------------------------------------ *)
(* One search, many augmenting paths                                   *)
(* ------------------------------------------------------------------ *)

(* Networks where ties are the rule: integer capacities and costs, and
   one to three parallel edges from every slot into the sink.  Supply i
   sits at node i, slot j is node ns + j, the sink comes after the
   slots.  [extra] slots join after the first round; every one of their
   edges costs more than all earlier edges together, so no residual path
   back from the sink can make a cycle through them negative and the
   widening keeps the flow optimal. *)
let ties_gen =
  QCheck2.Gen.(
    let* ns = int_range 1 4 in
    let* nd = int_range 1 5 in
    let* extra = int_range 1 3 in
    let* supplies = list_repeat ns (int_range 1 6) in
    let* quarters = list_repeat ns (int_range 0 4) in
    let* job_arcs = list_repeat (ns * (nd + extra)) (pair (int_range 1 3) (int_range 0 3)) in
    let* sink_arcs =
      list_repeat (nd + extra) (list_size (int_range 1 3) (pair (int_range 1 2) (int_range 0 2)))
    in
    let* seed = int in
    return (ns, nd, extra, supplies, quarters, job_arcs, sink_arcs, seed))

let prop_ties_match_cold_solves =
  QCheck2.Test.make ~name:"integer costs, parallel sink edges: every call = cold solve"
    ~count:200 ties_gen
    (fun (ns, nd, extra, supplies, quarters, job_arcs, sink_arcs, seed) ->
      let supplies = Array.of_list (List.map Float.of_int supplies) in
      let job_arcs = Array.of_list job_arcs and sink_arcs = Array.of_list sink_arcs in
      let sink = ns + nd + extra in
      let net = Mcmf.create ~n_nodes:(sink + 1) in
      (* Every edge added so far, in order, to rebuild the network cold. *)
      let edges = ref [] in
      let add ~src ~dst ~capacity ~cost =
        ignore (Mcmf.add_edge net ~src ~dst ~capacity ~cost);
        edges := (src, dst, capacity, cost) :: !edges
      in
      let add_slot j ~offset =
        List.iter
          (fun (c, w) ->
            add ~src:(ns + j) ~dst:sink ~capacity:(Float.of_int c) ~cost:(offset +. Float.of_int w))
          sink_arcs.(j);
        for i = 0 to ns - 1 do
          let c, w = job_arcs.((i * (nd + extra)) + j) in
          add ~src:i ~dst:(ns + j) ~capacity:(Float.of_int c) ~cost:(offset +. Float.of_int w)
        done
      in
      for j = 0 to nd - 1 do
        add_slot j ~offset:0.
      done;
      let routed = Array.make ns 0. in
      let out = ref { Mcmf.flow = 0.; cost = 0. } in
      (* Cold super-source solve of the amounts routed so far, on the
         edges present so far. *)
      let matches_cold () =
        let cold = Mcmf.create ~n_nodes:(sink + 2) in
        List.iter
          (fun (src, dst, capacity, cost) -> ignore (Mcmf.add_edge cold ~src ~dst ~capacity ~cost))
          (List.rev !edges);
        Array.iteri
          (fun i r -> ignore (Mcmf.add_edge cold ~src:(sink + 1) ~dst:i ~capacity:r ~cost:0.))
          routed;
        let c = Mcmf.solve cold ~source:(sink + 1) ~sink in
        let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs b) in
        close !out.Mcmf.flow c.Mcmf.flow && close !out.Mcmf.cost c.Mcmf.cost
        && Mcmf.no_negative_cycle net
      in
      let route i amount =
        let before = !out.Mcmf.flow in
        let go = if Mcmf.solved net then Mcmf.resolve else Mcmf.solve in
        out := go ~max_flow:amount net ~source:i ~sink;
        routed.(i) <- routed.(i) +. (!out.Mcmf.flow -. before);
        matches_cold ()
      in
      (* Each supply in two parts, all parts in one random order. *)
      let parts =
        List.concat
          (List.mapi
             (fun i q ->
               let first = supplies.(i) *. Float.of_int q /. 4. in
               [ (i, first); (i, supplies.(i) -. first) ])
             quarters)
      in
      let order = shuffled (List.length parts) seed in
      let parts = Array.of_list parts in
      let first_round = List.for_all (fun p -> let i, a = parts.(p) in route i a) order in
      let offset = 1. +. List.fold_left (fun a (_, _, _, w) -> a +. w) 0. !edges in
      for j = nd to nd + extra - 1 do
        add_slot j ~offset
      done;
      first_round
      && List.for_all
           (fun i -> route i (supplies.(i) -. routed.(i)))
           (shuffled ns (seed + 1)))

(* The LP's network for one batch of 20 Exp(1) jobs released at 0 (the
   benchmark's certify family) at slot width 0.5, k = 2, slot-start
   costs: job nodes first, then the slots, then the sink. *)
let batch_network () =
  let delta = 0.5 in
  let jobs =
    Array.of_list
      (Rr_workload.Instance.jobs
         (Rr_workload.Instance.generate ~rng:(Rr_util.Prng.create ~seed:1)
            ~arrivals:(Rr_workload.Arrivals.Batched { batch = 20; interval = 40. })
            ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
            ~n:20 ()))
  in
  let sizes = Array.map (fun (j : Rr_engine.Job.t) -> j.size) jobs in
  let nj = Array.length sizes in
  let work = Array.fold_left ( +. ) 0. sizes in
  let n_slots = 2 + int_of_float (Float.ceil (work /. delta)) in
  let sink = nj + n_slots in
  let net = Mcmf.create ~n_nodes:(sink + 1) in
  for s = 0 to n_slots - 1 do
    ignore (Mcmf.add_edge net ~src:(nj + s) ~dst:sink ~capacity:delta ~cost:0.)
  done;
  Array.iteri
    (fun j p ->
      for s = 0 to n_slots - 1 do
        let age = Float.of_int s *. delta in
        ignore
          (Mcmf.add_edge net ~src:j ~dst:(nj + s) ~capacity:delta
             ~cost:(((age *. age) +. (p *. p)) /. p))
      done)
    sizes;
  (net, sink, sizes, n_slots)

(* Routed job by job, smallest first as the LP routes a batch, each job
   fills two to four slots, through reverse edges once the early slots
   are taken: one search per job must serve all of its paths.  The cost
   and the number of augmenting paths were recorded with the solver that
   ran one search per path (60 searches for 60 paths). *)
let test_one_search_per_job () =
  let net, sink, sizes, n_slots = batch_network () in
  Alcotest.(check int) "slots" 43 n_slots;
  let order =
    List.stable_sort
      (fun a b -> Float.compare sizes.(a) sizes.(b))
      (List.init (Array.length sizes) Fun.id)
  in
  let _, out, _ = route_each net ~sink ~supplies:sizes order in
  check_close ~tol:1e-9 "all work routed" (Array.fold_left ( +. ) 0. sizes) !out.Mcmf.flow;
  Alcotest.(check string) "cost, bit for bit" "0x1.df8340a74c0d7p+9"
    (Printf.sprintf "%h" !out.Mcmf.cost);
  Alcotest.(check int) "augmenting paths" 60 (Mcmf.augmentations net);
  Alcotest.(check bool)
    (Printf.sprintf "%d searches for 20 jobs" (Mcmf.searches net))
    true
    (Mcmf.searches net <= 22);
  Alcotest.(check bool) "optimality certificate" true (Mcmf.no_negative_cycle net)

(* Four parallel unit edges from node 1 into the sink, all equally
   short, and two units to route: a search that stops at the sink keeps
   the first residual edge into it that it relaxed, which is the newest
   one (it leads node 1's edge list), so one search per path fills the
   two newest edges.  The batched search must fill the same two. *)
let test_ties_take_first_found () =
  let net = Mcmf.create ~n_nodes:3 in
  ignore (Mcmf.add_edge net ~src:0 ~dst:1 ~capacity:4. ~cost:1.);
  let into = List.init 4 (fun _ -> Mcmf.add_edge net ~src:1 ~dst:2 ~capacity:1. ~cost:0.) in
  let out = Mcmf.solve ~max_flow:2. net ~source:0 ~sink:2 in
  check_close "cost" 2. out.Mcmf.cost;
  Alcotest.(check (list (float 1e-12)))
    "flow on the sink edges, oldest first" [ 0.; 0.; 1.; 1. ]
    (List.map (Mcmf.flow_on net) into)

(* One search certifies 0 -> a -> s1 -> sink (length 0) and
   0 -> a -> s2 -> sink (length 1).  The first path fills 0 -> a, so the
   second is no longer intact: the batch ends there, and a second search
   finds 0 -> b -> s2 -> sink for the two units left.  Nodes: 0, a = 1,
   b = 2, s1 = 3, s2 = 4, sink = 5. *)
let test_broken_path_searched_again () =
  let net = Mcmf.create ~n_nodes:6 in
  ignore (Mcmf.add_edge net ~src:0 ~dst:1 ~capacity:1. ~cost:0.);
  let to_b = Mcmf.add_edge net ~src:0 ~dst:2 ~capacity:5. ~cost:2. in
  ignore (Mcmf.add_edge net ~src:1 ~dst:3 ~capacity:1. ~cost:0.);
  let a_s2 = Mcmf.add_edge net ~src:1 ~dst:4 ~capacity:5. ~cost:1. in
  ignore (Mcmf.add_edge net ~src:2 ~dst:4 ~capacity:5. ~cost:0.);
  ignore (Mcmf.add_edge net ~src:3 ~dst:5 ~capacity:1. ~cost:0.);
  ignore (Mcmf.add_edge net ~src:4 ~dst:5 ~capacity:5. ~cost:0.);
  let out = Mcmf.solve ~max_flow:3. net ~source:0 ~sink:5 in
  check_close "flow" 3. out.Mcmf.flow;
  check_close "cost" 4. out.Mcmf.cost;
  check_close "rest through b" 2. (Mcmf.flow_on net to_b);
  check_close "nothing through a -> s2" 0. (Mcmf.flow_on net a_s2);
  Alcotest.(check int) "searches" 2 (Mcmf.searches net);
  Alcotest.(check int) "augmenting paths" 2 (Mcmf.augmentations net);
  Alcotest.(check bool) "optimality certificate" true (Mcmf.no_negative_cycle net)

(* Every search ends one batch, for one cause. *)
let check_batch_ends net =
  let ends =
    List.map (Mcmf.batches_ended net)
      [ Mcmf.Path_cut; Room_left; Entries_used; Supply_routed; Sink_unreachable ]
  in
  Alcotest.(check int) "batch ends sum to searches" (Mcmf.searches net) (List.fold_left ( + ) 0 ends)

(* The twenty jobs of [batch_network] each end their one batch with
   their supply routed, and the broken path of
   [test_broken_path_searched_again] ends the first of its two batches. *)
let test_batch_end_causes () =
  let net, sink, sizes, _ = batch_network () in
  let _ = route_each net ~sink ~supplies:sizes (List.init (Array.length sizes) Fun.id) in
  check_batch_ends net;
  Alcotest.(check int) "routed" 20 (Mcmf.batches_ended net Supply_routed);
  let net = Mcmf.create ~n_nodes:3 in
  ignore (Mcmf.add_edge net ~src:0 ~dst:1 ~capacity:1. ~cost:0.);
  ignore (Mcmf.add_edge net ~src:1 ~dst:2 ~capacity:1. ~cost:0.);
  ignore (Mcmf.solve net ~source:0 ~sink:2);
  check_batch_ends net;
  Alcotest.(check int) "used up, then unreachable" 1 (Mcmf.batches_ended net Entries_used);
  Alcotest.(check int) "unreachable" 1 (Mcmf.batches_ended net Sink_unreachable)

(* Networks in the LP's shape with parallel slot arcs, solved, widened
   with dearer slots and resolved.  After each call the handles still
   name their edges: the cost they carry adds up to the returned cost,
   and flow is conserved at every node but the source and the sink. *)
let prop_handles_survive_layout =
  QCheck2.Test.make ~name:"handles survive the layout: cost and conservation" ~count:200
    QCheck2.Gen.(pair warm_gen (int_range 1 3))
    (fun ((supplies, caps, split, increments), copies) ->
      let ns = List.length supplies and nd = List.length caps in
      let supplies = Array.of_list supplies and caps = Array.of_list caps in
      let increments = Array.of_list increments in
      (* Non-decreasing in the slot, so widening creates no negative
         residual cycle (see [warm_gen]). *)
      let costs =
        Array.init ns (fun i ->
            let acc = ref 0. in
            Array.init nd (fun j ->
                acc := !acc +. increments.((i * nd) + j);
                !acc))
      in
      let source = 0 and sink = ns + nd + 1 in
      let net = Mcmf.create ~n_nodes:(ns + nd + 2) in
      let handles = ref [] in
      let add ~src ~dst ~capacity ~cost =
        handles := (Mcmf.add_edge net ~src ~dst ~capacity ~cost, src, dst, cost) :: !handles
      in
      Array.iteri (fun i s -> add ~src:source ~dst:(1 + i) ~capacity:s ~cost:0.) supplies;
      let add_slots lo hi =
        for j = lo to hi - 1 do
          for _ = 1 to copies do
            add ~src:(1 + ns + j) ~dst:sink ~capacity:(caps.(j) /. Float.of_int copies) ~cost:0.
          done;
          for i = 0 to ns - 1 do
            add ~src:(1 + i) ~dst:(1 + ns + j) ~capacity:10. ~cost:costs.(i).(j)
          done
        done
      in
      let consistent (out : Mcmf.outcome) =
        let balance = Array.make (ns + nd + 2) 0. in
        let carried = Rr_util.Kahan.create () in
        List.iter
          (fun (e, src, dst, cost) ->
            let f = Mcmf.flow_on net e in
            balance.(src) <- balance.(src) -. f;
            balance.(dst) <- balance.(dst) +. f;
            Rr_util.Kahan.add carried (f *. cost))
          !handles;
        let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs b) in
        close (Rr_util.Kahan.total carried) out.Mcmf.cost
        && close (-.balance.(source)) out.Mcmf.flow
        && Array.for_all Fun.id
             (Array.mapi
                (fun v b -> v = source || v = sink || Float.abs b <= 1e-9)
                balance)
      in
      add_slots 0 split;
      let first = Mcmf.solve net ~source ~sink in
      let ok_first = consistent first in
      add_slots split nd;
      let widened = Mcmf.resolve net ~source ~sink in
      ok_first && consistent widened && Mcmf.no_negative_cycle net)

(* A network emptied with [reset] and rebuilt solves exactly like a
   fresh one: same cost, flow, counts and flows, bit for bit, whether it
   grows past its old size or shrinks. *)
let prop_reset_equals_fresh =
  QCheck2.Test.make ~name:"a reset network = a fresh one, bit for bit" ~count:150
    QCheck2.Gen.(pair transportation_gen transportation_gen)
    (fun (first, second) ->
      let build net (supplies, caps, costs) =
        let ns = List.length supplies and nd = List.length caps in
        let sink = ns + nd + 1 in
        List.iteri
          (fun i s -> ignore (Mcmf.add_edge net ~src:0 ~dst:(1 + i) ~capacity:s ~cost:0.))
          supplies;
        List.iteri
          (fun j c -> ignore (Mcmf.add_edge net ~src:(1 + ns + j) ~dst:sink ~capacity:c ~cost:0.))
          caps;
        let costs = Array.of_list costs in
        let handles =
          List.concat
            (List.init ns (fun i ->
                 List.init nd (fun j ->
                     Mcmf.add_edge net ~src:(1 + i) ~dst:(1 + ns + j) ~capacity:1e9
                       ~cost:costs.((i * nd) + j))))
        in
        let out = Mcmf.solve net ~source:0 ~sink in
        ( Printf.sprintf "%h %h" out.Mcmf.flow out.Mcmf.cost,
          List.map (fun e -> Printf.sprintf "%h" (Mcmf.flow_on net e)) handles )
      in
      let nodes (s, c, _) = List.length s + List.length c + 2 in
      let recycled = Mcmf.create ~n_nodes:(nodes first) in
      ignore (build recycled first);
      let searches = Mcmf.searches recycled in
      Mcmf.reset recycled ~n_nodes:(nodes second);
      let again = build recycled second in
      let fresh_net = Mcmf.create ~n_nodes:(nodes second) in
      let fresh = build fresh_net second in
      again = fresh && Mcmf.searches recycled - searches = Mcmf.searches fresh_net)

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_mcmf_matches_simplex; prop_flow_bounded_by_capacity; prop_warm_resolve_equals_cold;
      prop_per_source_matches_super_source; prop_per_source_widening_equals_cold;
      prop_ties_match_cold_solves; prop_handles_survive_layout; prop_reset_equals_fresh ]

let () =
  Alcotest.run "rr_flow"
    [
      ( "hand networks",
        [
          Alcotest.test_case "single edge" `Quick test_single_edge;
          Alcotest.test_case "prefers cheap" `Quick test_two_paths_prefers_cheap;
          Alcotest.test_case "residual rerouting" `Quick test_rerouting_via_residual;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "max flow cap" `Quick test_max_flow_cap;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "second source cancels the first" `Quick
            test_second_source_cancels_first;
        ] );
      ( "warm start",
        [
          Alcotest.test_case "consumed network refused" `Quick test_consumed_raises;
          Alcotest.test_case "resolve needs a solve" `Quick test_resolve_requires_solve;
        ] );
      ( "batched paths",
        [
          Alcotest.test_case "one search per routed job" `Quick test_one_search_per_job;
          Alcotest.test_case "ties take the first path found" `Quick test_ties_take_first_found;
          Alcotest.test_case "a broken path is searched again" `Quick
            test_broken_path_searched_again;
          Alcotest.test_case "why each batch ended" `Quick test_batch_end_causes;
        ] );
      ("properties", qsuite);
    ]
