(* Readiness notification.  See poller.mli; the epoll calls live in
   poller_stubs.c. *)

type handle

type t = { handle : handle; ready : int array (* fd, flags, fd, flags, ... *) }

external create_handle : unit -> handle = "rr_poller_create"
external ctl : handle -> Unix.file_descr -> int -> int -> unit = "rr_poller_ctl"
external wait_into : handle -> int array -> int -> int = "rr_poller_wait"
external close_handle : handle -> unit = "rr_poller_close"

let readable = 1
let writable = 2

(* The stub takes at most 256 events per wait. *)
let create () = { handle = create_handle (); ready = Array.make (2 * 256) 0 }
let set t fd ~old interest = ctl t.handle fd old interest
let wait t ~timeout_ms = wait_into t.handle t.ready timeout_ms
let ready_fd t i = t.ready.(2 * i)
let ready_flags t i = t.ready.((2 * i) + 1)

(* On Unix a file_descr is the descriptor's number. *)
external index : Unix.file_descr -> int = "%identity"

let close t = close_handle t.handle
