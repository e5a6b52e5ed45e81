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
  (* Dijkstra scratch, reused across searches and calls: distance and
     predecessor labels plus an indexed binary min-heap on [dist] —
     [heap.(i)] is the node in heap slot i, [pos.(v)] the slot of node v
     or [unseen]/[settled].  Between searches every [dist] is infinite
     and every [pos] is [unseen]. *)
  dist : float array;
  prev_edge : int array;
  heap : int array;
  pos : int array;
  mutable heap_size : int;
  (* The current search's entries: entry x is the residual edge
     [entry_edge.(x)] into the sink from a settled node, at path length
     [entry_len.(x)].  [entry_heap] is a binary min-heap of entry numbers
     on (length, number), and [certified] lists the entries taken from
     it, in that order.  They belong to the network, so networks solved
     on different domains share nothing.  [need.(0)] is the supply the
     search must find room for, in a float array because a float field
     of this record would box on every write. *)
  mutable entry_len : float array;
  mutable entry_edge : int array;
  mutable entry_heap : int array;
  mutable certified : int array;
  mutable n_entries : int;
  mutable entry_heap_size : int;
  need : float array;
  mutable searches : int;
  mutable augmentations : int;
}

type outcome = { flow : float; cost : float }

let unseen = -1
let settled = -2

let create ~n_nodes =
  if n_nodes < 1 then invalid_arg "Mcmf.create: need at least one node";
  {
    n = n_nodes;
    head = [||];
    cap = [||];
    cost = [||];
    next_edge = [||];
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
    entry_len = [||];
    entry_edge = [||];
    entry_heap = [||];
    certified = [||];
    n_entries = 0;
    entry_heap_size = 0;
    need = [| 0. |];
    searches = 0;
    augmentations = 0;
  }

(* A copy of [a] with [size] slots whose first [used] are [a]'s. *)
let grown a ~size ~used fill =
  let na = Array.make size fill in
  Array.blit a 0 na 0 used;
  na

(* Reallocate the four edge arrays to [size] slots, keeping the edges. *)
let resize_edges t size =
  let used = t.n_edges in
  t.head <- grown t.head ~size ~used 0;
  t.cap <- grown t.cap ~size ~used 0.;
  t.cost <- grown t.cost ~size ~used 0.;
  t.next_edge <- grown t.next_edge ~size ~used (-1)

let reserve t ~edges =
  if edges < 0 then invalid_arg "Mcmf.reserve: negative edge count";
  let want = t.n_edges + (2 * edges) in
  if want > Array.length t.head then resize_edges t want

let add_edge t ~src ~dst ~capacity ~cost =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Mcmf.add_edge: endpoint out of range";
  if not (Float.is_finite capacity && capacity >= 0.) then
    invalid_arg "Mcmf.add_edge: capacity must be finite and non-negative";
  if not (Float.is_finite cost && cost >= 0.) then
    invalid_arg "Mcmf.add_edge: cost must be finite and non-negative";
  let size = Array.length t.head in
  if t.n_edges + 2 > size then resize_edges t (Int.max 16 (2 * size));
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

(* Entry order: shorter first, and among equal lengths the one recorded
   first — the edge a search that stops at the sink keeps as the sink's
   predecessor, since only a strictly shorter label replaces it. *)
let[@inline] entry_before t a b =
  let la = t.entry_len.(a) and lb = t.entry_len.(b) in
  la < lb || (la = lb && a < b)

let grow_entries t =
  let size = Int.max 16 (2 * Array.length t.entry_len) and used = t.n_entries in
  t.entry_len <- grown t.entry_len ~size ~used 0.;
  t.entry_edge <- grown t.entry_edge ~size ~used 0;
  t.entry_heap <- grown t.entry_heap ~size ~used 0;
  t.certified <- grown t.certified ~size ~used 0

(* Put entry [x], the newest, on the entry heap.  Every entry already
   there was recorded earlier, so it rises only past strictly longer
   ones. *)
let push_entry t x =
  let h = t.entry_heap and len = t.entry_len in
  let d = len.(x) in
  let i = ref t.entry_heap_size in
  t.entry_heap_size <- !i + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let y = h.(p) in
    if len.(y) > d then begin
      h.(!i) <- y;
      i := p
    end
    else continue := false
  done;
  h.(!i) <- x

let pop_entry t =
  let h = t.entry_heap in
  let top = h.(0) in
  let size = t.entry_heap_size - 1 in
  t.entry_heap_size <- size;
  if size > 0 then begin
    let x = h.(size) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= size then continue := false
      else begin
        let c = if l + 1 < size && entry_before t h.(l + 1) h.(l) then l + 1 else l in
        let y = h.(c) in
        if entry_before t y x then begin
          h.(!i) <- y;
          i := c
        end
        else continue := false
      end
    done;
    h.(!i) <- x
  end;
  top

(* Dijkstra on reduced costs from [source] that never settles [sink].
   Each residual edge into the sink from a settled node u becomes an
   entry of length d(u) + rc; an entry is certified once the smallest
   open label reaches its length, since no path found later can be
   shorter.  The search stops once the certified entries' sink edges
   can take [need.(0)] more flow, or when the heap empties, which
   certifies every entry; it returns how many it certified, in
   [certified].  Each node sits in the heap at most once and a shorter
   label moves it up in place (decrease-key). *)
let search t ~source ~sink =
  let pot = t.pot and dist = t.dist and prev_edge = t.prev_edge and pos = t.pos in
  let head = t.head and cap = t.cap and cost = t.cost in
  let next_edge = t.next_edge and first = t.first in
  t.searches <- t.searches + 1;
  t.n_entries <- 0;
  t.entry_heap_size <- 0;
  dist.(source) <- 0.;
  t.heap.(0) <- source;
  pos.(source) <- 0;
  t.heap_size <- 1;
  let need = t.need.(0) in
  let covered = ref 0. in
  let n_cert = ref 0 in
  let continue = ref true in
  while !continue do
    let bound = if t.heap_size > 0 then dist.(t.heap.(0)) else Float.infinity in
    while t.entry_heap_size > 0 && t.entry_len.(t.entry_heap.(0)) <= bound do
      let x = pop_entry t in
      t.certified.(!n_cert) <- x;
      incr n_cert;
      covered := !covered +. cap.(t.entry_edge.(x))
    done;
    if t.heap_size = 0 || !covered >= need then continue := false
    else begin
      let u = pop_min t in
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
            if v = sink then begin
              if t.n_entries = Array.length t.entry_len then grow_entries t;
              let x = t.n_entries in
              t.n_entries <- x + 1;
              t.entry_len.(x) <- nd;
              t.entry_edge.(x) <- edge;
              push_entry t x
            end
            else if nd < dist.(v) then begin
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
  !n_cert

(* Successive shortest augmenting paths on reduced costs, continuing from
   the potentials in [t.pot] (which must make every residual reduced cost
   non-negative up to rounding).  Pushes at most [extra_max] additional
   flow from [source]; accumulates into [t.acc_flow] / [t.acc_cost].

   One {!search} serves a batch of augmentations.  Its certified entries
   are taken in (length, number) order, and each one's path — the search
   tree's path to the entry's node, then the entry's edge — is augmented
   while every edge on it is still residual and the previous entry's
   sink edge is used up.  With D the length of the last entry augmented,
   every potential then advances by min(dist(v), D); nodes the search
   never reached, and the sink, advance by D.  No residual reduced cost
   goes negative:
   - between two settled nodes, Dijkstra left d(v) <= d(u) + rc, and
     min(., D) keeps that;
   - from a settled node to one still on the heap, the head's label is
     at most d(u) + rc and at least the smallest open label, which is at
     least D because D is a certified length;
   - from a node not settled, the tail advances by D, the most any node
     advances;
   - into the sink from a settled node u, the edge changes by
     min(d(u), D) - D: its entry length d(u) + rc is at least D unless
     the entry was certified shorter than D, and then it was augmented
     and its sink edge used up, so the edge is no longer residual;
   - the tree edges of an augmented path end at reduced cost 0 (both
     ends settled within D), and so do their twins; an earlier entry's
     sink edge ends at its length minus D, and its twin at D minus that
     length, which is not negative.
   The same argument, run with D set to each entry's own length, shows
   the batch is exact: at its turn every entry's path has reduced length
   0 and the residual network the earlier paths left has no negative
   reduced cost, so the path is a shortest one — the one a search that
   stops at the sink would take, with ties between equally short paths
   going to the entry recorded first.  A path that is no longer intact,
   or a sink edge with room left, ends the batch; the next search starts
   from the advanced potentials, as does a warm {!resolve}, from this
   source or any other. *)
let augment t ~source ~sink ~extra_max =
  let pot = t.pot and dist = t.dist and pos = t.pos and prev_edge = t.prev_edge in
  let head = t.head and cap = t.cap and cost = t.cost in
  t.perturbed <- false;
  let pushed = ref 0. in
  let continue = ref true in
  while !continue && !pushed < extra_max do
    t.need.(0) <- extra_max -. !pushed;
    let n_cert = search t ~source ~sink in
    let d_last = ref 0. in
    let i = ref 0 in
    let batch = ref true in
    while !batch && !i < n_cert && !pushed < extra_max do
      let x = t.certified.(!i) in
      let into = t.entry_edge.(x) in
      (* Bottleneck along the entry's path, walking back from the sink. *)
      let bottleneck = ref (extra_max -. !pushed) in
      batch := !i = 0 || not (residual t t.entry_edge.(t.certified.(!i - 1)));
      let e = ref into in
      while !batch && !e >= 0 do
        let edge = !e in
        if residual t edge then begin
          if cap.(edge) < !bottleneck then bottleneck := cap.(edge);
          let u = head.(edge lxor 1) in
          e := if u = source then -1 else prev_edge.(u)
        end
        else batch := false
      done;
      if !batch then begin
        let b = !bottleneck in
        let e = ref into in
        while !e >= 0 do
          let edge = !e in
          cap.(edge) <- cap.(edge) -. b;
          cap.(edge lxor 1) <- cap.(edge lxor 1) +. b;
          Rr_util.Kahan.add t.acc_cost (b *. cost.(edge));
          let u = head.(edge lxor 1) in
          e := if u = source then -1 else prev_edge.(u)
        done;
        pushed := !pushed +. b;
        d_last := t.entry_len.(x);
        t.augmentations <- t.augmentations + 1;
        incr i
      end
    done;
    (* Advance the potentials (see above) and clear the labels for the
       next search.  No certified entry means the sink is out of reach. *)
    let d = !d_last in
    for v = 0 to t.n - 1 do
      if n_cert > 0 then begin
        let dv = dist.(v) in
        pot.(v) <- pot.(v) +. (if dv < d then dv else d)
      end;
      dist.(v) <- Float.infinity;
      pos.(v) <- unseen
    done;
    if n_cert = 0 then continue := false
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
let searches t = t.searches
let augmentations t = t.augmentations

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
