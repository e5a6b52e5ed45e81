(** The one clock record every kernel ({!Kernel}) shares with its
    driver — the closed loop of {!Simulator.run_class} or the live
    {!Live} step.

    The paper's rates stay constant between events, so a kernel needs
    only three per-event operations — its next internal event, an
    advance by [dt], and a settle step — and the floats they exchange
    with the driver all live here.  The record is all-float, so its
    representation is flat: a driver writes [arrival]/[size] before
    [admit] and [dt]/[t_next] before [advance] as unboxed stores, and no
    float crosses the kernel boundary boxed. *)

type sink = id:int -> arrival:float -> flow:float -> unit
(** A completion consumer; {!Simulator.sink} is the same type.  Kernels
    never call one: they append completions to a {!log}, and a driver
    hands them to a sink only for callers that want per-job data. *)

type t = {
  mutable now : float;
      (** The instant the kernel's jobs have been advanced to: the last
          event, where [refresh], [admit] and [settle] act. *)
  mutable dt : float;  (** [advance] span: [t_next -. now]. *)
  mutable t_next : float;
      (** Written by [next_internal] (the earliest internal event,
          [infinity] when none); the driver folds in the next arrival,
          so before [advance] it holds the event instant. *)
  mutable horizon : float;
      (** A decision horizon set by [refresh] (kernels whose rates drift
          or whose quanta expire); [infinity] when none. *)
  mutable arrival : float;  (** [admit] argument: the job's release time. *)
  mutable size : float;  (** [admit] argument: the job's size. *)
  mutable next_arr : float;  (** Closed driver: the buffered next arrival. *)
  mutable makespan : float;  (** Closed driver: the last completion. *)
}

val create : unit -> t
(** A clock at [0.] with no pending event. *)

val threshold : float -> float
(** [threshold size = 1e-9 *. (1. +. size)]: a job counts as complete
    when its residual work is at most this.  The threshold absorbs the
    rounding of the analytic advance and is shared by every engine,
    the general loop included, so they agree on what "finished"
    means. *)

(** {2 Completion log}

    How a kernel hands its completions to the driver: [settle] appends
    each retired job, in retirement order, and the driver folds the log
    once the event is settled, then empties it.  The ids and floats sit
    in an int array and two float arrays, so neither side boxes a float
    or calls a closure per completed job. *)

type log = {
  mutable ids : int array;
  mutable arrivals : float array;
  mutable flows : float array;  (** [now -. arrival] at retirement. *)
  mutable count : int;  (** Entries [0 .. count - 1] are this event's. *)
}

val log_create : unit -> log
(** An empty log (capacity grows as needed). *)

val retire : log -> id:int -> arrival:float -> flow:float -> unit
(** Append one completion. *)

val hold : log -> id:int -> arrival:float -> unit
(** Append a job that is complete but not yet retired: a newcomer whose
    size is within {!threshold} of zero and that has to wait, which the
    general loop retires at the first event after its release.  Its flow
    is not known until then ([flows] is unused in a log of held jobs). *)

val release : log -> log -> now:float -> unit
(** [release held out ~now] retires every held job into [out] with
    [flow = now -. arrival], in holding order, and empties [held]. *)
