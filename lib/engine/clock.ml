(* The clock record every kernel shares with the driver running it.  See
   clock.mli.

   All-float, hence flat: the per-event writes of the instant, the
   advance span and the next event are plain unboxed stores, and a
   driver hands a job's arrival and size to [admit] through it without
   boxing either — this build has no flambda, so a float passed as a
   function argument across the kernel boundary would be boxed.

   Completions leave the kernel the same way: a kernel appends each one
   to a flat [log] (an int array and two float arrays, so the stores
   never box), and the driver folds the log once the event is settled —
   no closure is called, and no float is boxed, per completed job. *)

type sink = id:int -> arrival:float -> flow:float -> unit

type t = {
  mutable now : float;
  mutable dt : float;
  mutable t_next : float;
  mutable horizon : float;
  mutable arrival : float;
  mutable size : float;
  mutable next_arr : float;
  mutable makespan : float;
}

let create () =
  {
    now = 0.;
    dt = 0.;
    t_next = Float.infinity;
    horizon = Float.infinity;
    arrival = 0.;
    size = 0.;
    next_arr = Float.infinity;
    makespan = 0.;
  }

let[@inline] threshold size = 1e-9 *. (1. +. size)

type log = {
  mutable ids : int array;
  mutable arrivals : float array;
  mutable flows : float array;
  mutable count : int;
}

(* Empty until the first completion, so an idle live engine's snapshot
   stays small. *)
let log_create () = { ids = [||]; arrivals = [||]; flows = [||]; count = 0 }

let grow_log l =
  let cap = Int.max 16 (2 * Array.length l.ids) in
  let ids = Array.make cap 0 and arrivals = Array.make cap 0. and flows = Array.make cap 0. in
  Array.blit l.ids 0 ids 0 l.count;
  Array.blit l.arrivals 0 arrivals 0 l.count;
  Array.blit l.flows 0 flows 0 l.count;
  l.ids <- ids;
  l.arrivals <- arrivals;
  l.flows <- flows

let[@inline] retire l ~id ~arrival ~flow =
  if l.count = Array.length l.ids then grow_log l;
  let i = l.count in
  Array.unsafe_set l.ids i id;
  Array.unsafe_set l.arrivals i arrival;
  Array.unsafe_set l.flows i flow;
  l.count <- i + 1

let hold l ~id ~arrival = retire l ~id ~arrival ~flow:0.

let release held out ~now =
  for i = 0 to held.count - 1 do
    let arrival = held.arrivals.(i) in
    retire out ~id:held.ids.(i) ~arrival ~flow:(now -. arrival)
  done;
  held.count <- 0
