(* One kernel per policy class behind one interface.  See kernel.mli.

   Dispatch is a [match] over a closed sum of kernel states: every
   per-event call is then a direct call into the kernel's module, and
   every float it needs travels through the shared flat {!Clock.t}.  A
   functor or a record of closures would make each call indirect and, in
   a build without flambda, box its float arguments. *)

module Heap = Rr_util.Heap

(* ------------------------------------------------------------------ *)
(* Equal share (Round Robin)                                           *)
(* ------------------------------------------------------------------ *)

(* Under an equal-share policy every alive job is served at the same
   instantaneous rate [min(1, m/n) * speed], a function of the alive count
   alone.  Let V(t) be the cumulative service each alive job has received
   ("virtual service"): a job admitted when the clock read [V_a] completes
   exactly when V reaches its deadline [V_a + size].  Jobs therefore
   complete in deadline order, so a single binary heap of deadlines
   ({!Rr_util.Heap.Scalar2}, keyed on the deadline with the job id as
   payload and the arrival and size as satellites) replaces the per-event
   policy invocation and O(alive) scans of the general engine: each arrival
   or completion costs O(log alive), with no allocation per event — the
   heap IS the whole live state.

   The virtual clock, the current share and the due instant of the head's
   deadline sit in an all-float (flat) record, so their per-event updates
   are unboxed stores. *)
type share_fl = {
  mutable vsrv : float;  (* virtual service V *)
  mutable share : float;  (* policy rate min(1, m/n) since the last refresh *)
  mutable rate : float;  (* share * speed *)
  mutable due : float;  (* instant the head reaches its deadline *)
}

type share = { machines : int; speed : float; clk : Clock.t; heap : Heap.Scalar2.t; sf : share_fl }

let[@inline] share_admit s id =
  Heap.Scalar2.add s.heap ~key:(s.sf.vsrv +. s.clk.size) ~aux1:s.clk.arrival ~aux2:s.clk.size id

let[@inline] share_refresh s =
  let sh = Float.of_int s.machines /. Float.of_int (Heap.Scalar2.length s.heap) in
  s.sf.share <- (if sh > 1. then 1. else sh);
  s.sf.rate <- s.sf.share *. s.speed

let[@inline] share_next_internal s =
  s.sf.due <- s.clk.now +. ((Heap.Scalar2.min_key_exn s.heap -. s.sf.vsrv) /. s.sf.rate);
  s.clk.t_next <- s.sf.due

let[@inline] share_retire s out =
  let id = Heap.Scalar2.min_val_exn s.heap in
  let arrival = Heap.Scalar2.min_aux1_exn s.heap in
  ignore (Heap.Scalar2.pop_exn s.heap : int);
  Clock.retire out ~id ~arrival ~flow:(s.clk.now -. arrival)

let[@inline] share_settle s out =
  (* The head's deadline defined this event when it won the tie with the
     next arrival; retire it even if rounding left [vsrv] an ulp short of
     the deadline. *)
  if s.clk.now >= s.sf.due then share_retire s out;
  (* Cascade every job whose residual virtual service is within the
     completion threshold of this instant (simultaneous completions, and
     arrivals landing exactly on a completion). *)
  while
    (not (Heap.Scalar2.is_empty s.heap))
    && Heap.Scalar2.min_key_exn s.heap -. s.sf.vsrv
       <= Clock.threshold (Heap.Scalar2.min_aux2_exn s.heap)
  do
    share_retire s out
  done

(* ------------------------------------------------------------------ *)
(* The closed sum                                                      *)
(* ------------------------------------------------------------------ *)

type state =
  | Share of share
  | Index of Index_engine.slots
  | Setf of Index_engine.setf
  | Dense of Class_engine.state
  | Hybrid of Hybrid_engine.state
  | Budget of Budget_engine.state

type t = { clk : Clock.t; log : Clock.log; state : state }

let create ~scratch ~machines ~speed (klass : Policy_class.t) =
  if machines < 1 then invalid_arg "Kernel.create: machines must be >= 1";
  if not (Float.is_finite speed && speed > 0.) then
    invalid_arg "Kernel.create: speed must be finite and positive";
  (match Policy_class.validate klass with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Kernel.create: " ^ msg));
  let clk = Clock.create () in
  let state =
    match klass with
    | Equal_share ->
        Share
          {
            machines;
            speed;
            clk;
            heap = Arena.scalar2_of scratch;
            sf = { vsrv = 0.; share = 0.; rate = 0.; due = Float.infinity };
          }
    | Static_key key ->
        Index (Index_engine.create ~clk ~scratch ~machines ~speed (Index_engine.kind_of_key key))
    | Attained_cascade -> Setf (Index_engine.setf_create ~clk ~scratch ~machines ~speed)
    | Starvation_hybrid { theta } ->
        Hybrid (Hybrid_engine.create ~clk ~scratch ~machines ~speed ~theta)
    | Preempt_budget { budget } ->
        Budget (Budget_engine.create ~clk ~scratch ~machines ~speed ~budget)
    | Level_ladder _ | Quantum_cycle _ | Latest_fraction _ | Aged_share _ | Sized_share _ ->
        Dense (Class_engine.create ~clk ~machines ~speed klass)
  in
  { clk; log = Clock.log_create (); state }

let clock k = k.clk
let log k = k.log

let[@inline] alive k =
  match k.state with
  | Share s -> Heap.Scalar2.length s.heap
  | Index s -> Index_engine.alive s
  | Setf s -> Index_engine.setf_alive s
  | Dense s -> Class_engine.alive s
  | Hybrid s -> Hybrid_engine.alive s
  | Budget s -> Budget_engine.alive s

let[@inline] admit k id =
  match k.state with
  | Share s -> share_admit s id
  | Index s -> Index_engine.admit s id
  | Setf s -> Index_engine.setf_admit s id
  | Dense s -> Class_engine.admit s id
  | Hybrid s -> Hybrid_engine.admit s id
  | Budget s -> Budget_engine.admit s id

(* The two per-event calls of both drivers.  Each dispatches once and
   runs a fixed sequence of the kernel's primitives, so an event costs two
   jumps through the sum, not one per primitive. *)
let[@inline] scan k ~refresh =
  match k.state with
  | Share s ->
      if refresh then share_refresh s;
      share_next_internal s
  | Index s -> Index_engine.next_internal s
  | Setf s ->
      if refresh then Index_engine.setf_refresh s;
      Index_engine.setf_next_internal s
  | Dense s ->
      if refresh then Class_engine.refresh s;
      Class_engine.next_internal s
  | Hybrid s ->
      if refresh then Hybrid_engine.refresh s;
      Hybrid_engine.next_internal s
  | Budget s ->
      if refresh then Budget_engine.refresh s;
      Budget_engine.next_internal s

let[@inline] finish k =
  let clk = k.clk and out = k.log in
  out.count <- 0;
  (match k.state with
  | Share s ->
      s.sf.vsrv <- s.sf.vsrv +. (s.sf.rate *. clk.dt);
      clk.now <- clk.t_next;
      share_settle s out
  | Index s ->
      Index_engine.advance s;
      clk.now <- clk.t_next;
      Index_engine.settle s out
  | Setf s ->
      Index_engine.setf_advance s;
      clk.now <- clk.t_next;
      Index_engine.setf_settle s out
  | Dense s -> Class_engine.finish s out
  | Hybrid s ->
      Hybrid_engine.advance s;
      clk.now <- clk.t_next;
      Hybrid_engine.settle s out
  | Budget s ->
      Budget_engine.advance s;
      clk.now <- clk.t_next;
      Budget_engine.settle s out);
  out.count

let iter_alive k f =
  match k.state with
  | Share s -> Heap.Scalar2.iter (fun _key id arrival _size -> f id arrival s.sf.share) s.heap
  | Index s -> Index_engine.iter_alive s f
  | Setf s -> Index_engine.setf_iter_alive s f
  | Dense s -> Class_engine.iter_alive s f
  | Hybrid s -> Hybrid_engine.iter_alive s f
  | Budget s -> Budget_engine.iter_alive s f
