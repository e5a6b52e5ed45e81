type batch_end = Path_cut | Room_left | Entries_used | Supply_routed | Sink_unreachable

type t = {
  mutable n : int;
  (* Edges as added, one entry per pair: pair i is the forward edge
     src.(i) -> dst.(i) (handle 2i) and its residual twin (handle 2i+1),
     with the capacity and cost the forward edge was added with. *)
  mutable src : int array;
  mutable dst : int array;
  mutable cap0 : float array;
  mutable cost0 : float array;
  mutable n_pairs : int;
  (* The searched layout of the first [laid] pairs (see {!lay_out}): node
     u's arcs are [start.(u) .. start.(u+1) - 1], newest first, and arc a
     leads to [arc_head.(a)] at [arc_cost.(a)], with residual capacity
     [arc_cap.(2a)] and its twin [arc_twin.(a)]'s residual capacity
     mirrored in [arc_cap.(2a+1)].  [slot.(e)] is the arc of handle e. *)
  mutable laid : int;
  mutable start : int array;
  mutable arc_head : int array;
  mutable arc_twin : int array;
  mutable arc_cost : float array;
  mutable arc_cap : float array;
  mutable slot : int array;
  (* Warm-start state: Johnson potentials survive the solve so a
     perturbed network can continue augmenting from the previous basis
     instead of re-deriving shortest-path distances from scratch.
     [perturbed] records an [add_edge] since the last augmentation — the
     only event that can leave a residual reduced cost negative. *)
  mutable pot : float array;
  mutable solved : bool;
  mutable perturbed : bool;
  mutable acc_flow : float;
  mutable acc_cost : Rr_util.Kahan.t;
  (* Dijkstra scratch, reused across searches and calls: distance and
     predecessor-arc labels plus an indexed binary min-heap on [dist] —
     [heap.(i)] is the node in heap slot i, [pos.(v)] the slot of node v
     or [unseen]/[settled].  Between searches every [dist] is infinite
     and every [pos] is [unseen]. *)
  mutable dist : float array;
  mutable prev_arc : int array;
  mutable heap : int array;
  mutable pos : int array;
  mutable heap_size : int;
  (* The current search's entries: entry x is the residual arc
     [entry_arc.(x)] into the sink from a settled node, at path length
     [entry_len.(x)].  [entry_heap] is a binary min-heap of entry numbers
     on (length, number), and [certified] lists the entries taken from
     it, in that order.  They belong to the network, so networks solved
     on different domains share nothing.  [need.(0)] is the supply the
     search must find room for, in a float array because a float field
     of this record would box on every write. *)
  mutable entry_len : float array;
  mutable entry_arc : int array;
  mutable entry_heap : int array;
  mutable certified : int array;
  mutable n_entries : int;
  mutable entry_heap_size : int;
  need : float array;
  mutable edges_added : int;
  mutable searches : int;
  mutable augmentations : int;
  (* Searches by the cause that ended their batch, indexed by
     [end_index]. *)
  ends : int array;
}

type outcome = { flow : float; cost : float }

let unseen = -1
let settled = -2

(* Unchecked array access, for the search's hot loops only: there every
   index is a node below [n] or an arc of the current layout, inside its
   array by construction. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let end_index = function
  | Path_cut -> 0
  | Room_left -> 1
  | Entries_used -> 2
  | Supply_routed -> 3
  | Sink_unreachable -> 4

let create ~n_nodes =
  if n_nodes < 1 then invalid_arg "Mcmf.create: need at least one node";
  {
    n = n_nodes;
    src = [||];
    dst = [||];
    cap0 = [||];
    cost0 = [||];
    n_pairs = 0;
    laid = 0;
    start = Array.make (n_nodes + 1) 0;
    arc_head = [||];
    arc_twin = [||];
    arc_cost = [||];
    arc_cap = [||];
    slot = [||];
    pot = Array.make n_nodes 0.;
    solved = false;
    perturbed = false;
    acc_flow = 0.;
    acc_cost = Rr_util.Kahan.create ();
    dist = Array.make n_nodes Float.infinity;
    prev_arc = Array.make n_nodes (-1);
    heap = Array.make n_nodes 0;
    pos = Array.make n_nodes unseen;
    heap_size = 0;
    entry_len = [||];
    entry_arc = [||];
    entry_heap = [||];
    certified = [||];
    n_entries = 0;
    entry_heap_size = 0;
    need = [| 0. |];
    edges_added = 0;
    searches = 0;
    augmentations = 0;
    ends = Array.make 5 0;
  }

let reset t ~n_nodes =
  if n_nodes < 1 then invalid_arg "Mcmf.reset: need at least one node";
  if n_nodes > Array.length t.pot then begin
    t.start <- Array.make (n_nodes + 1) 0;
    t.pot <- Array.make n_nodes 0.;
    t.dist <- Array.make n_nodes Float.infinity;
    t.prev_arc <- Array.make n_nodes (-1);
    t.heap <- Array.make n_nodes 0;
    t.pos <- Array.make n_nodes unseen
  end
  else begin
    Array.fill t.pot 0 n_nodes 0.;
    Array.fill t.dist 0 n_nodes Float.infinity;
    Array.fill t.pos 0 n_nodes unseen
  end;
  t.n <- n_nodes;
  t.n_pairs <- 0;
  t.laid <- 0;
  t.solved <- false;
  t.perturbed <- false;
  t.acc_flow <- 0.;
  t.acc_cost <- Rr_util.Kahan.create ()

(* A copy of [a] with [size] slots whose first [used] are [a]'s. *)
let grown a ~size ~used fill =
  let na = Array.make size fill in
  Array.blit a 0 na 0 used;
  na

(* Reallocate the four pair arrays to [size] pairs, keeping the edges. *)
let resize_pairs t size =
  let used = t.n_pairs in
  t.src <- grown t.src ~size ~used 0;
  t.dst <- grown t.dst ~size ~used 0;
  t.cap0 <- grown t.cap0 ~size ~used 0.;
  t.cost0 <- grown t.cost0 ~size ~used 0.

let reserve t ~edges =
  if edges < 0 then invalid_arg "Mcmf.reserve: negative edge count";
  let want = t.n_pairs + edges in
  if want > Array.length t.src then resize_pairs t want

(* Out of line, so the inlined [add_edge] stays small. *)
let bad_endpoint () = invalid_arg "Mcmf.add_edge: endpoint out of range"
let bad_capacity () = invalid_arg "Mcmf.add_edge: capacity must be finite and non-negative"
let bad_cost () = invalid_arg "Mcmf.add_edge: cost must be finite and non-negative"

let grow_pairs t = resize_pairs t (Int.max 8 (2 * Array.length t.src))

(* Inlined, so a caller's [capacity] and [cost] reach the float arrays
   unboxed. *)
let[@inline] add_edge t ~src ~dst ~capacity ~cost =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then bad_endpoint ();
  if not (Float.is_finite capacity && capacity >= 0.) then bad_capacity ();
  if not (Float.is_finite cost && cost >= 0.) then bad_cost ();
  if t.n_pairs = Array.length t.src then grow_pairs t;
  let i = t.n_pairs in
  t.src.(i) <- src;
  t.dst.(i) <- dst;
  t.cap0.(i) <- capacity;
  t.cost0.(i) <- cost;
  t.n_pairs <- i + 1;
  t.edges_added <- t.edges_added + 1;
  t.perturbed <- true;
  2 * i

(* [a] itself when it has [size] slots or more, else a fresh array of
   exactly [size]: a recycled network grows to the largest size asked of
   it and no further. *)
let at_least a size fill = if Array.length a >= size then a else Array.make size fill

(* Lay out the arcs of every pair added so far, grouped by tail node:
   node u's arcs fill [start.(u) .. start.(u+1) - 1], newest first.  The
   scan order decides which of two equally short labels a search keeps,
   so it is part of every value the solver returns (see "Why no float
   depends on the layout" in the interface).  Arcs laid out before keep
   their residual capacities; new ones start at the capacity they were
   added with (their twins at 0). *)
let lay_out t =
  let n = t.n and n_arcs = 2 * t.n_pairs in
  let carried =
    if t.laid = 0 then [||] else Array.init (2 * t.laid) (fun e -> t.arc_cap.(2 * t.slot.(e)))
  in
  t.arc_head <- at_least t.arc_head n_arcs 0;
  t.arc_twin <- at_least t.arc_twin n_arcs 0;
  t.arc_cost <- at_least t.arc_cost n_arcs 0.;
  t.arc_cap <- at_least t.arc_cap (2 * n_arcs) 0.;
  t.slot <- at_least t.slot n_arcs 0;
  let start = t.start and src = t.src and dst = t.dst in
  Array.fill start 0 (n + 1) 0;
  for i = 0 to t.n_pairs - 1 do
    start.(src.(i)) <- start.(src.(i)) + 1;
    start.(dst.(i)) <- start.(dst.(i)) + 1
  done;
  (* start.(u) becomes the end of u's run; placing the oldest arc first,
     each at the run's end minus one, leaves start.(u) at the run's
     beginning and the newest arc there. *)
  for u = 1 to n - 1 do
    start.(u) <- start.(u) + start.(u - 1)
  done;
  start.(n) <- n_arcs;
  let head = t.arc_head and cost = t.arc_cost and cap = t.arc_cap and slot = t.slot in
  for e = 0 to n_arcs - 1 do
    let i = e lsr 1 in
    let forward = e land 1 = 0 in
    let tail = if forward then src.(i) else dst.(i) in
    let a = start.(tail) - 1 in
    start.(tail) <- a;
    slot.(e) <- a;
    head.(a) <- (if forward then dst.(i) else src.(i));
    cost.(a) <- (if forward then t.cost0.(i) else -.t.cost0.(i));
    cap.(2 * a) <- (if e < Array.length carried then carried.(e) else if forward then t.cap0.(i) else 0.)
  done;
  for e = 0 to n_arcs - 1 do
    let a = slot.(e) and b = slot.(e lxor 1) in
    t.arc_twin.(a) <- b;
    cap.((2 * a) + 1) <- cap.(2 * b)
  done;
  t.laid <- t.n_pairs

let ensure_laid_out t = if t.laid < t.n_pairs then lay_out t

(* An arc counts as residual only when its capacity clears the rounding
   noise of its own edge pair: [arc_cap.(2a) +. arc_cap.(2a+1)] is the
   pair's original capacity (augmentation moves capacity between twins),
   so the saturation threshold scales per edge rather than with the
   network-wide maximum — a huge "uncapacitated" arc must not make a
   small but real residual on a unit-capacity arc look saturated. *)
let[@inline] residual t a =
  let c = t.arc_cap.(2 * a) in
  c > 1e-12 *. (1. +. c +. t.arc_cap.((2 * a) + 1))

(* The tail and head of handle e, from the pair it belongs to. *)
let[@inline] tail_of t e = if e land 1 = 0 then t.src.(e lsr 1) else t.dst.(e lsr 1)
let[@inline] head_of t e = if e land 1 = 0 then t.dst.(e lsr 1) else t.src.(e lsr 1)

let check_endpoints name t ~source ~sink =
  if source = sink then invalid_arg (name ^ ": source equals sink");
  if source < 0 || source >= t.n || sink < 0 || sink >= t.n then
    invalid_arg (name ^ ": node out of range")

(* Indexed heap: move the node in slot [i] towards the root while its
   parent is farther.  Keys are read from [dist], so nothing is boxed. *)
let sift_up t i =
  let heap = t.heap and pos = t.pos and dist = t.dist in
  let v = heap.!(i) in
  let d = dist.!(v) in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let u = heap.!(p) in
    if dist.!(u) > d then begin
      heap.!(!i) <- u;
      pos.!(u) <- !i;
      i := p
    end
    else continue := false
  done;
  heap.!(!i) <- v;
  pos.!(v) <- !i

(* Remove the nearest node from the heap and mark it settled. *)
let pop_min t =
  let heap = t.heap and pos = t.pos and dist = t.dist in
  let top = heap.(0) in
  pos.(top) <- settled;
  let size = t.heap_size - 1 in
  t.heap_size <- size;
  if size > 0 then begin
    let v = heap.!(size) in
    let d = dist.!(v) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= size then continue := false
      else begin
        let c =
          if l + 1 < size && dist.!(heap.!(l + 1)) < dist.!(heap.!(l)) then l + 1 else l
        in
        let u = heap.!(c) in
        if dist.!(u) < d then begin
          heap.!(!i) <- u;
          pos.!(u) <- !i;
          i := c
        end
        else continue := false
      end
    done;
    heap.!(!i) <- v;
    pos.!(v) <- !i
  end;
  top

(* Entry order: shorter first, and among equal lengths the one recorded
   first — the arc a search that stops at the sink keeps as the sink's
   predecessor, since only a strictly shorter label replaces it. *)
let[@inline] entry_before t a b =
  let la = t.entry_len.(a) and lb = t.entry_len.(b) in
  la < lb || (la = lb && a < b)

let grow_entries t =
  let size = Int.max 16 (2 * Array.length t.entry_len) and used = t.n_entries in
  t.entry_len <- grown t.entry_len ~size ~used 0.;
  t.entry_arc <- grown t.entry_arc ~size ~used 0;
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
   Each residual arc into the sink from a settled node u becomes an
   entry of length d(u) + rc; an entry is certified once the smallest
   open label reaches its length, since no path found later can be
   shorter.  The search stops once the certified entries' sink arcs can
   take [need.(0)] more flow, or when the heap empties, which certifies
   every entry; it returns how many it certified, in [certified].  Each
   node sits in the heap at most once and a shorter label moves it up in
   place (decrease-key). *)
let search t ~source ~sink =
  let pot = t.pot and dist = t.dist and prev_arc = t.prev_arc and pos = t.pos in
  let start = t.start and head = t.arc_head and cap = t.arc_cap and cost = t.arc_cost in
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
      covered := !covered +. cap.(2 * t.entry_arc.(x))
    done;
    if t.heap_size = 0 || !covered >= need then continue := false
    else begin
      let u = pop_min t in
      let du = dist.(u) and pu = pot.(u) in
      for a = start.(u) to start.(u + 1) - 1 do
        (* [residual], inlined.  A saturated arc (capacity exactly 0,
           every reverse arc before its first augmentation) fails the
           test whatever its twin holds, so its twin is not read. *)
        let c = cap.!(2 * a) in
        if c > 0. && c > 1e-12 *. (1. +. c +. cap.!((2 * a) + 1)) then begin
          let v = head.!(a) in
          let pv = pos.!(v) in
          if pv <> settled then begin
            (* Reduced cost is non-negative by the potential invariant;
               clamp tiny negative rounding noise. *)
            let rc = cost.!(a) +. pu -. pot.!(v) in
            let nd = if rc > 0. then du +. rc else du in
            if v = sink then begin
              if t.n_entries = Array.length t.entry_len then grow_entries t;
              let x = t.n_entries in
              t.n_entries <- x + 1;
              t.entry_len.(x) <- nd;
              t.entry_arc.(x) <- a;
              push_entry t x
            end
            else if nd < dist.!(v) then begin
              dist.!(v) <- nd;
              prev_arc.!(v) <- a;
              if pv = unseen then begin
                let i = t.heap_size in
                t.heap_size <- i + 1;
                t.heap.(i) <- v;
                sift_up t i
              end
              else sift_up t pv
            end
          end
        end
      done
    end
  done;
  !n_cert

let count_end t cause =
  let i = end_index cause in
  t.ends.(i) <- t.ends.(i) + 1

(* Successive shortest augmenting paths on reduced costs, continuing from
   the potentials in [t.pot] (which must make every residual reduced cost
   non-negative up to rounding).  Pushes at most [extra_max] additional
   flow from [source]; accumulates into [t.acc_flow] / [t.acc_cost].

   One {!search} serves a batch of augmentations.  Its certified entries
   are taken in (length, number) order, and each one's path — the search
   tree's path to the entry's node, then the entry's arc — is augmented
   while every arc on it is still residual and the previous entry's
   sink arc is used up.  With D the length of the last entry augmented,
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
   - into the sink from a settled node u, the arc changes by
     min(d(u), D) - D: its entry length d(u) + rc is at least D unless
     the entry was certified shorter than D, and then it was augmented
     and its sink arc used up, so the arc is no longer residual;
   - the tree arcs of an augmented path end at reduced cost 0 (both
     ends settled within D), and so do their twins; an earlier entry's
     sink arc ends at its length minus D, and its twin at D minus that
     length, which is not negative.
   The same argument, run with D set to each entry's own length, shows
   the batch is exact: at its turn every entry's path has reduced length
   0 and the residual network the earlier paths left has no negative
   reduced cost, so the path is a shortest one — the one a search that
   stops at the sink would take, with ties between equally short paths
   going to the entry recorded first.  A path that is no longer intact,
   or a sink arc with room left, ends the batch; the next search starts
   from the advanced potentials, as does a warm {!resolve}, from this
   source or any other.  Every batch's end is counted by its cause. *)
let augment t ~source ~sink ~extra_max =
  let pot = t.pot and dist = t.dist and pos = t.pos and prev_arc = t.prev_arc in
  let head = t.arc_head and twin = t.arc_twin and cap = t.arc_cap and cost = t.arc_cost in
  t.perturbed <- false;
  let pushed = ref 0. in
  let continue = ref true in
  while !continue && !pushed < extra_max do
    t.need.(0) <- extra_max -. !pushed;
    let n_cert = search t ~source ~sink in
    let d_last = ref 0. in
    let i = ref 0 in
    let batch = ref true in
    let cut = ref false in
    while !batch && !i < n_cert && !pushed < extra_max do
      let x = t.certified.(!i) in
      let into = t.entry_arc.(x) in
      (* Bottleneck along the entry's path, walking back from the sink. *)
      let bottleneck = ref (extra_max -. !pushed) in
      batch := !i = 0 || not (residual t t.entry_arc.(t.certified.(!i - 1)));
      let e = ref into in
      while !batch && !e >= 0 do
        let a = !e in
        if residual t a then begin
          if cap.(2 * a) < !bottleneck then bottleneck := cap.(2 * a);
          let u = head.(twin.(a)) in
          e := if u = source then -1 else prev_arc.(u)
        end
        else begin
          cut := true;
          batch := false
        end
      done;
      if !batch then begin
        let b = !bottleneck in
        let e = ref into in
        while !e >= 0 do
          let a = !e in
          let tw = twin.(a) in
          let c = cap.(2 * a) -. b and ct = cap.(2 * tw) +. b in
          cap.(2 * a) <- c;
          cap.((2 * tw) + 1) <- c;
          cap.(2 * tw) <- ct;
          cap.((2 * a) + 1) <- ct;
          Rr_util.Kahan.add t.acc_cost (b *. cost.(a));
          let u = head.(tw) in
          e := if u = source then -1 else prev_arc.(u)
        done;
        pushed := !pushed +. b;
        d_last := t.entry_len.(x);
        t.augmentations <- t.augmentations + 1;
        incr i
      end
    done;
    count_end t
      (if n_cert = 0 then Sink_unreachable
       else if !cut then Path_cut
       else if not !batch then Room_left
       else if !pushed >= extra_max then Supply_routed
       else Entries_used);
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
  ensure_laid_out t;
  (* The potentials are still all zero, a valid dual for non-negative
     costs. *)
  augment t ~source ~sink ~extra_max:max_flow;
  t.solved <- true;
  { flow = t.acc_flow; cost = Rr_util.Kahan.total t.acc_cost }

(* After a perturbation (edges added since the last augmentation) the
   stored potentials may leave some residual reduced costs negative.  One
   Bellman-Ford fixpoint over the residual edges, in handle order,
   restores the invariant; failing to converge within [n] rounds means
   the perturbation created a negative residual cycle, i.e. the existing
   flow is no longer optimal at its own value and warm continuation would
   be wrong. *)
let repair_potentials t =
  let scale =
    let a = ref 1. in
    for v = 0 to t.n - 1 do
      let p = t.pot.(v) in
      if Float.is_finite p then a := Float.max !a (Float.abs p)
    done;
    !a
  in
  let cost_eps = 1e-10 *. scale in
  let pot = t.pot in
  let relax_once () =
    let changed = ref false in
    for e = 0 to (2 * t.n_pairs) - 1 do
      let a = t.slot.(e) in
      if residual t a then begin
        let u = tail_of t e and v = head_of t e in
        if pot.(u) +. t.arc_cost.(a) < pot.(v) -. cost_eps then begin
          pot.(v) <- pot.(u) +. t.arc_cost.(a);
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
  ensure_laid_out t;
  if t.perturbed then repair_potentials t;
  augment t ~source ~sink ~extra_max:max_flow;
  { flow = t.acc_flow; cost = Rr_util.Kahan.total t.acc_cost }

let solved t = t.solved
let edges_added t = t.edges_added
let searches t = t.searches
let augmentations t = t.augmentations
let batches_ended t cause = t.ends.(end_index cause)

let flow_on t e =
  if e < 0 || e >= 2 * t.n_pairs || e land 1 = 1 then invalid_arg "Mcmf.flow_on: bad edge handle";
  (* Flow on a forward edge equals the residual capacity of its twin,
     mirrored beside its own; an edge not laid out yet carries none. *)
  if e >= 2 * t.laid then 0. else t.arc_cap.((2 * t.slot.(e)) + 1)

let no_negative_cycle t =
  ensure_laid_out t;
  let cost_eps = 1e-7 in
  (* Bellman-Ford with all distances 0 detects any reachable negative
     cycle among residual edges. *)
  let dist = Array.make t.n 0. in
  let relax_once () =
    let changed = ref false in
    for e = 0 to (2 * t.n_pairs) - 1 do
      let a = t.slot.(e) in
      if residual t a then begin
        let u = tail_of t e and v = head_of t e in
        if dist.(u) +. t.arc_cost.(a) < dist.(v) -. cost_eps then begin
          dist.(v) <- dist.(u) +. t.arc_cost.(a);
          changed := true
        end
      end
    done;
    !changed
  in
  let rec loop i = if i = 0 then true else if relax_once () then loop (i - 1) else true in
  if loop t.n then not (relax_once ()) else false
