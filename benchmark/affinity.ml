(* A run keeps all of its processes on one CPU.  On the reference box a
   wake-up across vCPUs (a reply waking the client, a request waking the
   daemon) costs a few microseconds in one phase of the host and twice
   that in the next, and open-loop latency doubled with it.  On one CPU
   every wake-up is a local context switch, the speed readings (speed.ml)
   see the CPU the work runs on, and the closed loop loses nothing: its
   client waits while the daemon works. *)

external get : unit -> int = "rr_bench_get_affinity" [@@noalloc]
external set : int -> bool = "rr_bench_set_affinity" [@@noalloc]

let allowed = get ()

(* Pin this process, and every child it forks from now on, to the
   highest-numbered CPU it may use.  If the mask cannot be read or set,
   the run goes on unpinned. *)
let pin () =
  let rec top i = if i < 0 || allowed land (1 lsl i) <> 0 then i else top (i - 1) in
  let cpu = top 61 in
  if cpu >= 0 then ignore (set (1 lsl cpu) : bool)

(* Back to every allowed CPU, for the 2-domain pool of a traced run. *)
let unpin () = if allowed <> 0 then ignore (set allowed : bool)
