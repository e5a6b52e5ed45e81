(* The clock record every kernel shares with the driver running it.  See
   clock.mli.

   All-float, hence flat: the per-event writes of the instant, the
   advance span and the next event are plain unboxed stores, and a
   driver hands a job's arrival and size to [admit] through it without
   boxing either — this build has no flambda, so a float passed as a
   function argument across the kernel boundary would be boxed. *)

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
