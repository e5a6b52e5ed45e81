type mode = Slot_start | Slot_end
type windows = Dense | Sparse

type solution = {
  value : float;
  delta : float;
  allocation : (float * float) list array;
}

type interval = { lo : float; hi : float; delta : float; solves : int }

let default_delta = 0.25
let default_tol = 0.05

let validate ~k ~machines ~delta =
  if k < 1 then invalid_arg "Lp_bound.value: k must be >= 1";
  if machines < 1 then invalid_arg "Lp_bound.value: machines must be >= 1";
  if delta <= 0. then invalid_arg "Lp_bound.value: delta must be positive"

(* Single-machine busy periods of the instance: maximal [(first, last)]
   index ranges (jobs sorted by arrival, as Instance.jobs guarantees) with
   no idle time between them when the work is served at unit rate, plus
   the end time of each period.  Any work-conserving schedule on m >= 1
   unit-speed machines drains alive work at rate >= 1 whenever it is
   positive, so its alive-work profile is dominated by the one-machine one
   and every job completes by the end of its one-machine busy period; and
   every instance has a work-conserving optimal schedule (idling never
   helps a non-decreasing completion-time objective).  Hence restricting
   job j's LP arcs to [r_j, busy-period end) keeps some optimal schedule
   feasible — which is all the 2-gamma certificate needs — and in fact
   leaves the LP optimum unchanged: the window holds enough slack capacity
   and every arc cost grows with age, so no optimal LP solution runs work
   past the end of its busy period. *)
let busy_periods (jobs : Rr_engine.Job.t array) =
  let n = Array.length jobs in
  let periods = ref [] in
  let period_start = ref 0 in
  let busy_end = ref Float.neg_infinity in
  for i = 0 to n - 1 do
    let j = jobs.(i) in
    if j.arrival > !busy_end then begin
      if i > 0 then periods := (!period_start, i - 1, !busy_end) :: !periods;
      period_start := i;
      busy_end := j.arrival
    end;
    busy_end := !busy_end +. j.size
  done;
  if n > 0 then periods := (!period_start, n - 1, !busy_end) :: !periods;
  List.rev !periods

(* Slots of width [delta] cover [0, horizon) with horizon = last arrival
   + W/m + 2 delta: capacity after the last arrival absorbs all remaining
   work, so the transportation problem is feasible.  The one place the
   slot count and its 200_000 limit are decided, shared by the solver's
   rejection and the refinement's stop rule: [Error n] when the grid
   would need [n > 200_000] slots. *)
let slot_count ~machines ~delta inst =
  let max_arrival =
    List.fold_left
      (fun acc (j : Rr_engine.Job.t) -> Float.max acc j.arrival)
      0. (Rr_workload.Instance.jobs inst)
  in
  let total_work = Rr_workload.Instance.total_work inst in
  let horizon = max_arrival +. (total_work /. Float.of_int machines) +. (2. *. delta) in
  let n_slots = int_of_float (Float.ceil (horizon /. delta)) in
  if n_slots > 200_000 then Error n_slots else Ok n_slots

(* Solve the LP restricted to one group of jobs and one range of slots
   [s_lo, s_hi_init) (global slot indices; the component owns the nodes up
   to [s_reach] so the belt-and-braces widening loop below can grow into
   the idle gap after the busy period without rebuilding).  [members] are
   global job indices.  Returns the component's objective; [on_arc], when
   given, receives [(job, slot_start, flow)] for every job arc of the
   solved network.  [net] is reset for the component and built in place.

   There is no super source: each member's p_j is routed from its own
   node (successive shortest paths with node imbalances), in release
   order and, among jobs sharing a first slot, smallest first.  Every
   intermediate flow is a min-cost flow for the supplies routed so far,
   so the order cannot change the optimum; it only decides how often a
   later path must cancel earlier flow through a reverse arc, and this
   one is the order the optimum tends to fill slots in. *)
let solve_part net ~mode ~gamma ~k ~machines ~delta ~(jobs : Rr_engine.Job.t array) ~members
    ~s_lo ~s_hi_init ~s_reach ~on_arc =
  let nm = Array.length members in
  let slot_node s = nm + (s - s_lo) in
  let sink = nm + (s_reach - s_lo) in
  Rr_flow.Mcmf.reset net ~n_nodes:(sink + 1);
  let member_lo =
    Array.map (fun ji -> Int.max s_lo (int_of_float (jobs.(ji).arrival /. delta))) members
  in
  (* One slot arc per slot and at most one job arc per member and slot of
     its window: the edge arrays are sized once. *)
  Rr_flow.Mcmf.reserve net
    ~edges:
      (Array.fold_left (fun acc lo -> acc + Int.max 0 (s_hi_init - lo)) (s_hi_init - s_lo)
         member_lo);
  let m_cap = Float.of_int machines *. delta in
  let s_hi = ref s_hi_init in
  for s = s_lo to !s_hi - 1 do
    ignore (Rr_flow.Mcmf.add_edge net ~src:(slot_node s) ~dst:sink ~capacity:m_cap ~cost:0.)
  done;
  let arcs = ref [] in
  (* Job arcs for slots [from_slot, to_slot) of member mi. *)
  let add_arcs mi ~from_slot ~to_slot =
    let j = jobs.(members.(mi)) in
    let pk = Rr_util.Floatx.powi j.size k in
    for s = from_slot to to_slot - 1 do
      let slot_start = Float.of_int s *. delta in
      let slot_end = slot_start +. delta in
      if slot_end > j.arrival then begin
        (* Work of this job routed into slot s runs inside
           [max(r_j, slot_start), slot_end). *)
        let window_start = Float.max j.arrival slot_start in
        let cap = Float.of_int machines *. (slot_end -. window_start) in
        let t_eval = match mode with Slot_start -> window_start | Slot_end -> slot_end in
        let age = t_eval -. j.arrival in
        let cost = gamma /. j.size *. (Rr_util.Floatx.powi age k +. pk) in
        let e = Rr_flow.Mcmf.add_edge net ~src:mi ~dst:(slot_node s) ~capacity:cap ~cost in
        if Option.is_some on_arc then arcs := (members.(mi), slot_start, e) :: !arcs
      end
    done
  in
  Array.iteri (fun mi _ -> add_arcs mi ~from_slot:member_lo.(mi) ~to_slot:!s_hi) members;
  let size mi = jobs.(members.(mi)).size in
  let order = Array.init nm Fun.id in
  Array.stable_sort
    (fun a b ->
      match Int.compare member_lo.(a) member_lo.(b) with
      | 0 -> Float.compare (size a) (size b)
      | c -> c)
    order;
  let total_work = Array.fold_left (fun acc ji -> acc +. jobs.(ji).size) 0. members in
  let leftover = Array.init nm size in
  let routed = ref { Rr_flow.Mcmf.flow = 0.; cost = 0. } in
  let route mi =
    let before = (!routed).flow in
    let go = if Rr_flow.Mcmf.solved net then Rr_flow.Mcmf.resolve else Rr_flow.Mcmf.solve in
    routed := go ~max_flow:leftover.(mi) net ~source:mi ~sink;
    leftover.(mi) <- leftover.(mi) -. ((!routed).flow -. before)
  in
  Array.iter route order;
  let enough () = (!routed).flow >= total_work *. (1. -. 1e-6) in
  (* Should be unreachable (busy-period windows are provably sufficient);
     kept as a guard so a rounding corner degrades into a warm-started
     widening into the trailing idle gap instead of a wrong answer.  A
     job is done once its leftover is within Mcmf's saturation rule for
     an arc of its size. *)
  while (not (enough ())) && !s_hi < s_reach do
    let next = Int.min s_reach (!s_hi + Int.max 1 (!s_hi - s_lo)) in
    for s = !s_hi to next - 1 do
      ignore (Rr_flow.Mcmf.add_edge net ~src:(slot_node s) ~dst:sink ~capacity:m_cap ~cost:0.)
    done;
    Array.iteri (fun mi _ -> add_arcs mi ~from_slot:!s_hi ~to_slot:next) members;
    s_hi := next;
    Array.iter
      (fun mi -> if leftover.(mi) > 1e-12 *. (1. +. size mi) then route mi)
      order
  done;
  if not (enough ()) then
    failwith
      (Printf.sprintf "Lp_bound.value: routed only %g of %g work (internal horizon bug)"
         (!routed).flow total_work);
  Option.iter
    (fun f ->
      List.iter (fun (ji, slot_start, e) -> f ji slot_start (Rr_flow.Mcmf.flow_on net e)) !arcs)
    on_arc;
  (!routed).cost

(* One network per domain, lent to one LP at a time and reset for each of
   its components, the way Rr_engine.Arena lends simulation scratch: a
   run of solves on one domain reuses storage already grown to its
   largest component, so a warm solve allocates no network at all.  Each
   domain has its own, so [Bound] can solve a level's two modes at once
   on a two-domain Pool.  A re-entrant solve (an [on_arc] callback that
   solves another LP on the same domain) finds the network lent and
   builds a fresh one. *)
type lender = { net : Rr_flow.Mcmf.t; mutable lent : bool }

let lender =
  Domain.DLS.new_key (fun () -> { net = Rr_flow.Mcmf.create ~n_nodes:1; lent = false })

let with_network f =
  let l = Domain.DLS.get lender in
  if l.lent then f (Rr_flow.Mcmf.create ~n_nodes:1)
  else begin
    l.lent <- true;
    Fun.protect ~finally:(fun () -> l.lent <- false) (fun () -> f l.net)
  end

type routing = {
  edges : int;
  searches : int;
  augmentations : int;
  path_cut : int;
  room_left : int;
  entries_used : int;
  supply_routed : int;
  sink_unreachable : int;
}

let routing () =
  let net = (Domain.DLS.get lender).net in
  let ended = Rr_flow.Mcmf.batches_ended net in
  {
    edges = Rr_flow.Mcmf.edges_added net;
    searches = Rr_flow.Mcmf.searches net;
    augmentations = Rr_flow.Mcmf.augmentations net;
    path_cut = ended Path_cut;
    room_left = ended Room_left;
    entries_used = ended Entries_used;
    supply_routed = ended Supply_routed;
    sink_unreachable = ended Sink_unreachable;
  }

(* Build and solve the transportation network(s) for LP_primal.  With
   [Sparse] windows the problem decomposes: jobs of different busy periods
   have disjoint slot windows, so each (merged) group of overlapping
   busy-period slot ranges is an independent transportation problem and
   the objective is the sum — the successive-shortest-path solver is
   superlinear in component size, so solving many 1/(1-rho)-sized
   components is the difference between seconds and hours at n = 2000.
   [Dense] keeps the original single O(n·slots) network as the
   differential oracle.  Every component is solved on the domain's
   network, reset in turn. *)
let solve_network ~mode ~gamma ~k ~machines ~delta ~windows ~on_arc inst =
  validate ~k ~machines ~delta;
  let jobs = Array.of_list (Rr_workload.Instance.jobs inst) in
  let n = Array.length jobs in
  if n = 0 then 0.
  else begin
    let n_slots =
      match slot_count ~machines ~delta inst with
      | Ok n_slots -> n_slots
      | Error n_slots ->
          invalid_arg
            (Printf.sprintf "Lp_bound.value: %d slots needed; coarsen delta" n_slots)
    in
    let components =
      match windows with
      | Dense ->
          [ (Array.init n (fun i -> i), 0, n_slots, n_slots) ]
      | Sparse ->
          (* Slot range of each busy period, merged when ranges touch (an
             idle gap shorter than delta shares a boundary slot). *)
          let ranges =
            List.map
              (fun (first, last, busy_end) ->
                let s_lo = int_of_float (jobs.(first).arrival /. delta) in
                let s_hi = Int.min n_slots (1 + int_of_float (Float.ceil (busy_end /. delta))) in
                (first, last, s_lo, Int.max (s_lo + 1) s_hi))
              (busy_periods jobs)
          in
          let merged =
            List.fold_left
              (fun acc (first, last, s_lo, s_hi) ->
                match acc with
                | (f0, _, lo0, hi0) :: rest when s_lo < hi0 ->
                    (f0, last, lo0, Int.max hi0 s_hi) :: rest
                | _ -> (first, last, s_lo, s_hi) :: acc)
              [] ranges
          in
          (* Each component may widen rightwards into the idle gap before
             the next component's first slot (the last one up to the global
             horizon) without touching foreign capacity. *)
          let rec with_reach = function
            | [] -> []
            | (first, last, s_lo, s_hi) :: ((next_first, _, _, _) :: _ as rest) ->
                let reach = int_of_float (jobs.(next_first).arrival /. delta) in
                (Array.init (last - first + 1) (fun i -> first + i), s_lo, s_hi,
                 Int.max s_hi reach)
                :: with_reach rest
            | [ (first, last, s_lo, s_hi) ] ->
                [ (Array.init (last - first + 1) (fun i -> first + i), s_lo, s_hi, n_slots) ]
          in
          with_reach (List.rev merged)
    in
    let total = Rr_util.Kahan.create () in
    with_network (fun net ->
        List.iter
          (fun (members, s_lo, s_hi_init, s_reach) ->
            Rr_util.Kahan.add total
              (solve_part net ~mode ~gamma ~k ~machines ~delta ~jobs ~members ~s_lo ~s_hi_init
                 ~s_reach ~on_arc))
          components);
    Rr_util.Kahan.total total
  end

let value ?(mode = Slot_start) ?(gamma = 1.) ?(windows = Sparse) ~k ~machines ~delta inst =
  solve_network ~mode ~gamma ~k ~machines ~delta ~windows ~on_arc:None inst

let solve ?(mode = Slot_start) ?(gamma = 1.) ?(windows = Sparse) ?on_arc ~k ~machines ~delta
    inst =
  let allocation = Array.make (Rr_workload.Instance.n inst) [] in
  let on_arc ji slot_start f =
    Option.iter (fun g -> g ji slot_start f) on_arc;
    if f > 1e-12 then allocation.(ji) <- (slot_start, f) :: allocation.(ji)
  in
  let v =
    solve_network ~mode ~gamma ~k ~machines ~delta ~windows ~on_arc:(Some on_arc) inst
  in
  Array.iteri
    (fun i l ->
      allocation.(i) <- List.sort (fun (a, _) (b, _) -> Float.compare a b) l)
    allocation;
  { value = v; delta; allocation }

let completion_profile sol ~job =
  if job < 0 || job >= Array.length sol.allocation then
    invalid_arg "Lp_bound.completion_profile: unknown job";
  match List.rev sol.allocation.(job) with
  | [] -> Float.nan
  | (slot_start, _) :: _ -> slot_start +. sol.delta

(* Adaptive coarse-to-fine certification: solve both evaluation modes at a
   coarse delta and halve it only while the certified [lo, hi] bracket on
   the continuous LP value is wider than [tol] relative.  [probe] evaluates
   a batch of (mode, delta) requests — the default runs them sequentially
   here; Temporal_fairness.Bound injects a probe that fans the pair out on
   a Pool and memoises each evaluation in the Cache. *)
let value_interval ?(gamma = 1.) ?(windows = Sparse) ?init_delta ?(min_delta = 1e-4)
    ?(max_solves = 64) ?probe ~tol ~k ~machines inst =
  let init_delta = match init_delta with Some d -> d | None -> 4. *. default_delta in
  validate ~k ~machines ~delta:init_delta;
  if tol <= 0. then invalid_arg "Lp_bound.value_interval: tol must be positive";
  if min_delta <= 0. then invalid_arg "Lp_bound.value_interval: min_delta must be positive";
  let probe =
    match probe with
    | Some f -> f
    | None ->
        List.map (fun (mode, delta) -> value ~mode ~gamma ~windows ~k ~machines ~delta inst)
  in
  if Rr_workload.Instance.n inst = 0 then { lo = 0.; hi = 0.; delta = init_delta; solves = 0 }
  else begin
    let rec refine delta solves =
      let lo, hi =
        match probe [ (Slot_start, delta); (Slot_end, delta) ] with
        | [ lo; hi ] -> (lo, hi)
        | _ -> invalid_arg "Lp_bound.value_interval: probe must return one value per request"
      in
      let solves = solves + 2 in
      let converged = hi -. lo <= tol *. Float.max lo 1e-12 in
      let next = delta /. 2. in
      if
        converged || next < min_delta || solves + 2 > max_solves
        || Result.is_error (slot_count ~machines ~delta:next inst)
      then { lo; hi; delta; solves }
      else refine next solves
    in
    refine init_delta 0
  end

(* Combinatorial pre-filter: a certified lower bound on OPT's power sum
   with no LP solve.  Two floors:

   - every unit of job j's work costs the LP at least gamma * p_j^{k-1}
     (the p^k term alone), so gamma * sum_j p_j^k <= LP value at any
     discretisation, and (sum p^k)/2 <= OPT's power sum outright (every
     flow time is at least the size);
   - on one machine SRPT minimises total flow time, so by the power-mean
     inequality OPT's power sum >= (sum_j F_j^SRPT)^k / n^{k-1}; the
     companion (a + p)^k <= 2^{k-1} (a^k + p^k) slack keeps the halved
     term at or below the LP certificate in practice, making the filter a
     sound stand-in for the bound it short-circuits.

   The SRPT sum comes from the priority-index kernel (through
   Rr_engine.Simulator.run_class), so the filter costs one fast
   simulation. *)
let cheap_lower_bound ?(gamma = 1.) ~k ~machines inst =
  validate ~k ~machines ~delta:1.;
  let jobs = Rr_workload.Instance.jobs inst in
  match jobs with
  | [] -> 0.
  | _ ->
      let n = Rr_workload.Instance.n inst in
      let sum_pk =
        Rr_util.Kahan.sum_by
          (fun (j : Rr_engine.Job.t) -> Rr_util.Floatx.powi j.size k)
          (Array.of_list jobs)
      in
      let srpt_term =
        if machines = 1 then begin
          let res =
            Rr_engine.Simulator.run_class ~machines:1
              (Rr_engine.Policy_class.Static_key Rr_engine.Policy_class.Key_remaining)
              jobs
          in
          let total = Rr_util.Kahan.sum (Rr_engine.Simulator.flows res) in
          Rr_util.Floatx.powi total k /. Rr_util.Floatx.powi (2. *. Float.of_int n) (k - 1)
        end
        else 0.
      in
      gamma *. Float.max sum_pk srpt_term /. 2.

let opt_power_lower_bound ?windows ~k ~machines ~delta inst =
  value ~mode:Slot_start ~gamma:1. ?windows ~k ~machines ~delta inst /. 2.

let opt_norm_lower_bound ?windows ~k ~machines ~delta inst =
  opt_power_lower_bound ?windows ~k ~machines ~delta inst ** (1. /. Float.of_int k)
