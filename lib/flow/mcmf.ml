type t = {
  n : int;
  (* Edge-array representation: edge 2i is a forward edge, 2i+1 its
     residual twin.  [head.(e)] is the target of edge [e]; adjacency is the
     classic intrusive list [first.(node)] / [next_edge.(e)] so the hot
     Dijkstra loop chases int arrays, not boxed cons cells. *)
  mutable head : int array;
  mutable cap : float array;
  mutable cost : float array;
  mutable next_edge : int array;
  first : int array;
  mutable n_edges : int;
  (* Warm-start state: Johnson potentials survive the solve so a
     perturbed network can continue augmenting from the previous basis
     instead of re-deriving shortest-path distances from scratch.
     [perturbed] records an [add_edge] since the last augmentation — the
     only event that can leave a residual reduced cost negative. *)
  pot : float array;
  mutable solved : bool;
  mutable perturbed : bool;
  mutable acc_flow : float;
  acc_cost : Rr_util.Kahan.t;
  (* Dijkstra scratch, reused across augmentations and calls: distance and
     predecessor labels plus an indexed binary min-heap on [dist] —
     [heap.(i)] is the node in heap slot i, [pos.(v)] the slot of node v
     or [unseen]/[settled].  Between searches every [dist] is infinite
     and every [pos] is [unseen]. *)
  dist : float array;
  prev_edge : int array;
  heap : int array;
  pos : int array;
  mutable heap_size : int;
}

type outcome = { flow : float; cost : float }

let unseen = -1
let settled = -2

let create ~n_nodes =
  if n_nodes < 1 then invalid_arg "Mcmf.create: need at least one node";
  {
    n = n_nodes;
    head = Array.make 16 0;
    cap = Array.make 16 0.;
    cost = Array.make 16 0.;
    next_edge = Array.make 16 (-1);
    first = Array.make n_nodes (-1);
    n_edges = 0;
    pot = Array.make n_nodes 0.;
    solved = false;
    perturbed = false;
    acc_flow = 0.;
    acc_cost = Rr_util.Kahan.create ();
    dist = Array.make n_nodes Float.infinity;
    prev_edge = Array.make n_nodes (-1);
    heap = Array.make n_nodes 0;
    pos = Array.make n_nodes unseen;
    heap_size = 0;
  }

let ensure_capacity t =
  let cap = Array.length t.head in
  if t.n_edges + 2 > cap then begin
    let ncap = 2 * cap in
    let grow a fill =
      let na = Array.make ncap fill in
      Array.blit a 0 na 0 t.n_edges;
      na
    in
    t.head <- grow t.head 0;
    t.cap <- grow t.cap 0.;
    t.cost <- grow t.cost 0.;
    t.next_edge <- grow t.next_edge (-1)
  end

let add_edge t ~src ~dst ~capacity ~cost =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Mcmf.add_edge: endpoint out of range";
  if not (Float.is_finite capacity && capacity >= 0.) then
    invalid_arg "Mcmf.add_edge: capacity must be finite and non-negative";
  if not (Float.is_finite cost && cost >= 0.) then
    invalid_arg "Mcmf.add_edge: cost must be finite and non-negative";
  ensure_capacity t;
  let e = t.n_edges in
  t.head.(e) <- dst;
  t.cap.(e) <- capacity;
  t.cost.(e) <- cost;
  t.head.(e + 1) <- src;
  t.cap.(e + 1) <- 0.;
  t.cost.(e + 1) <- -.cost;
  t.next_edge.(e) <- t.first.(src);
  t.first.(src) <- e;
  t.next_edge.(e + 1) <- t.first.(dst);
  t.first.(dst) <- e + 1;
  t.n_edges <- t.n_edges + 2;
  t.perturbed <- true;
  e

(* An edge counts as residual only when its capacity clears the rounding
   noise of its own edge pair: [cap.(e) +. cap.(e lxor 1)] is the pair's
   original capacity (augmentation moves capacity between twins), so the
   saturation threshold scales per edge rather than with the network-wide
   maximum — a huge "uncapacitated" arc must not make a small but real
   residual on a unit-capacity arc look saturated. *)
let residual t e = t.cap.(e) > 1e-12 *. (1. +. t.cap.(e) +. t.cap.(e lxor 1))

let check_endpoints name t ~source ~sink =
  if source = sink then invalid_arg (name ^ ": source equals sink");
  if source < 0 || source >= t.n || sink < 0 || sink >= t.n then
    invalid_arg (name ^ ": node out of range")

(* Indexed heap: move the node in slot [i] towards the root while its
   parent is farther.  Keys are read from [dist], so nothing is boxed. *)
let sift_up t i =
  let heap = t.heap and pos = t.pos and dist = t.dist in
  let v = heap.(i) in
  let d = dist.(v) in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let u = heap.(p) in
    if dist.(u) > d then begin
      heap.(!i) <- u;
      pos.(u) <- !i;
      i := p
    end
    else continue := false
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

(* Remove the nearest node from the heap and mark it settled. *)
let pop_min t =
  let heap = t.heap and pos = t.pos and dist = t.dist in
  let top = heap.(0) in
  pos.(top) <- settled;
  let size = t.heap_size - 1 in
  t.heap_size <- size;
  if size > 0 then begin
    let v = heap.(size) in
    let d = dist.(v) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= size then continue := false
      else begin
        let c = if l + 1 < size && dist.(heap.(l + 1)) < dist.(heap.(l)) then l + 1 else l in
        let u = heap.(c) in
        if dist.(u) < d then begin
          heap.(!i) <- u;
          pos.(u) <- !i;
          i := c
        end
        else continue := false
      end
    done;
    heap.(!i) <- v;
    pos.(v) <- !i
  end;
  top

(* Dijkstra on reduced costs from [source], stopping as soon as [sink]
   settles; returns whether it did.  Each node sits in the heap at most
   once and a shorter label moves it up in place (decrease-key). *)
let shortest_path t ~source ~sink =
  let pot = t.pot and dist = t.dist and prev_edge = t.prev_edge and pos = t.pos in
  let head = t.head and cap = t.cap and cost = t.cost in
  let next_edge = t.next_edge and first = t.first in
  dist.(source) <- 0.;
  t.heap.(0) <- source;
  pos.(source) <- 0;
  t.heap_size <- 1;
  let found = ref false in
  while (not !found) && t.heap_size > 0 do
    let u = pop_min t in
    if u = sink then found := true
    else begin
      let du = dist.(u) and pu = pot.(u) in
      let e = ref first.(u) in
      while !e >= 0 do
        let edge = !e in
        (* [residual], inlined. *)
        let c = cap.(edge) in
        if c > 1e-12 *. (1. +. c +. cap.(edge lxor 1)) then begin
          let v = head.(edge) in
          let pv = pos.(v) in
          if pv <> settled then begin
            (* Reduced cost is non-negative by the potential invariant;
               clamp tiny negative rounding noise. *)
            let rc = cost.(edge) +. pu -. pot.(v) in
            let nd = if rc > 0. then du +. rc else du in
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              prev_edge.(v) <- edge;
              if pv = unseen then begin
                let i = t.heap_size in
                t.heap_size <- i + 1;
                t.heap.(i) <- v;
                sift_up t i
              end
              else sift_up t pv
            end
          end
        end;
        e := next_edge.(edge)
      done
    end
  done;
  !found

(* Successive shortest augmenting paths on reduced costs, continuing from
   the potentials in [t.pot] (which must make every residual reduced cost
   non-negative up to rounding).  Pushes at most [extra_max] additional
   flow from [source]; accumulates into [t.acc_flow] / [t.acc_cost].

   The Dijkstra stops as soon as the sink settles; potentials then
   advance by [min dist.(v) dist.(sink)] with unreached nodes counting as
   infinitely far, which preserves the reduced-cost invariant on every
   residual edge (see the comment at the update below), so the next
   augmentation — or a warm {!resolve}, from this source or any other —
   starts from a valid dual. *)
let augment t ~source ~sink ~extra_max =
  let pot = t.pot and dist = t.dist and pos = t.pos and prev_edge = t.prev_edge in
  let head = t.head and cap = t.cap and cost = t.cost in
  t.perturbed <- false;
  let pushed = ref 0. in
  let continue = ref true in
  while !continue && !pushed < extra_max do
    let found = shortest_path t ~source ~sink in
    let dsink = dist.(sink) in
    (* Advance every node's potential by min(dist, dist_sink) — nodes
       the stopped Dijkstra never reached count as infinitely far and
       advance by dist_sink.  This is what keeps the reduced-cost
       invariant global: a settled node's residual out-edges all point
       at reached nodes (settling relaxed them), and every other pair
       moves by at least as much at the tail as at the head.  The same
       pass clears the labels for the next search. *)
    for v = 0 to t.n - 1 do
      if found then begin
        let dv = dist.(v) in
        pot.(v) <- pot.(v) +. (if dv < dsink then dv else dsink)
      end;
      dist.(v) <- Float.infinity;
      pos.(v) <- unseen
    done;
    if not found then continue := false
    else begin
      (* Bottleneck along the augmenting path. *)
      let bottleneck = ref (extra_max -. !pushed) in
      let v = ref sink in
      while !v <> source do
        let e = prev_edge.(!v) in
        if cap.(e) < !bottleneck then bottleneck := cap.(e);
        v := head.(e lxor 1)
      done;
      let b = !bottleneck in
      let v = ref sink in
      while !v <> source do
        let e = prev_edge.(!v) in
        cap.(e) <- cap.(e) -. b;
        cap.(e lxor 1) <- cap.(e lxor 1) +. b;
        Rr_util.Kahan.add t.acc_cost (b *. cost.(e));
        v := head.(e lxor 1)
      done;
      pushed := !pushed +. b
    end
  done;
  t.acc_flow <- t.acc_flow +. !pushed

let solve ?(max_flow = Float.infinity) t ~source ~sink =
  if t.solved then
    invalid_arg
      "Mcmf.solve: network already consumed (capacities hold the residual state of a \
       previous solve); build a fresh network, or use Mcmf.resolve to continue this one \
       after a perturbation";
  check_endpoints "Mcmf.solve" t ~source ~sink;
  (* The potentials are still all zero, a valid dual for non-negative
     costs. *)
  augment t ~source ~sink ~extra_max:max_flow;
  t.solved <- true;
  { flow = t.acc_flow; cost = Rr_util.Kahan.total t.acc_cost }

(* After a perturbation (edges added since the last augmentation) the
   stored potentials may leave some residual reduced costs negative.  One
   Bellman-Ford fixpoint over the residual edges restores the invariant;
   failing to converge within [n] rounds means the perturbation created a
   negative residual cycle, i.e. the existing flow is no longer optimal at
   its own value and warm continuation would be wrong. *)
let repair_potentials t =
  let scale =
    Array.fold_left (fun a p -> if Float.is_finite p then Float.max a (Float.abs p) else a)
      1. t.pot
  in
  let cost_eps = 1e-10 *. scale in
  let pot = t.pot in
  let relax_once () =
    let changed = ref false in
    for e = 0 to t.n_edges - 1 do
      if residual t e then begin
        let u = t.head.(e lxor 1) and v = t.head.(e) in
        if pot.(u) +. t.cost.(e) < pot.(v) -. cost_eps then begin
          pot.(v) <- pot.(u) +. t.cost.(e);
          changed := true
        end
      end
    done;
    !changed
  in
  let rec loop i =
    if relax_once () then
      if i = 0 then
        failwith
          "Mcmf.resolve: perturbation created a negative residual cycle; the previous \
           flow is no longer optimal, re-solve from a fresh network"
      else loop (i - 1)
  in
  loop (t.n + 1)

let resolve ?(max_flow = Float.infinity) t ~source ~sink =
  if not t.solved then
    invalid_arg "Mcmf.resolve: network not solved yet; call Mcmf.solve first";
  check_endpoints "Mcmf.resolve" t ~source ~sink;
  if t.perturbed then repair_potentials t;
  augment t ~source ~sink ~extra_max:max_flow;
  { flow = t.acc_flow; cost = Rr_util.Kahan.total t.acc_cost }

let solved t = t.solved

let flow_on t e =
  if e < 0 || e >= t.n_edges || e land 1 = 1 then invalid_arg "Mcmf.flow_on: bad edge handle";
  (* Flow on a forward edge equals the residual capacity of its twin. *)
  t.cap.(e + 1)

let no_negative_cycle t =
  let cost_eps = 1e-7 in
  (* Bellman-Ford with all distances 0 detects any reachable negative
     cycle among residual edges. *)
  let dist = Array.make t.n 0. in
  let relax_once () =
    let changed = ref false in
    for e = 0 to t.n_edges - 1 do
      if residual t e then begin
        let u = t.head.(e lxor 1) and v = t.head.(e) in
        if dist.(u) +. t.cost.(e) < dist.(v) -. cost_eps then begin
          dist.(v) <- dist.(u) +. t.cost.(e);
          changed := true
        end
      end
    done;
    !changed
  in
  let rec loop i = if i = 0 then true else if relax_once () then loop (i - 1) else true in
  if loop t.n then not (relax_once ()) else false
