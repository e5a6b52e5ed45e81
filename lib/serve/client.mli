(** Blocking client for the binary framed protocol (PROTOCOL.md).

    One synchronous request/reply exchange per call, over a Unix domain
    socket.  The loadgen, the serve benchmarks and the over-the-socket
    tests all drive the server through this module; [rr_cli loadgen] is
    a thin CLI over {!Loadgen}, which builds on it. *)

type t

exception Server_error of string
(** An ERR reply: the server-reported message, verbatim.  Engine-level
    errors leave the connection usable; protocol errors are followed by
    a server-side close. *)

val connect : ?retries:int -> string -> t
(** Connect to the Unix socket at this path and exchange hellos.
    [retries] (default 100) x 20 ms covers the race against a server
    still binding its socket (connection refused / missing path).
    SIGPIPE is ignored process-wide.
    @raise Unix.Unix_error when the server never comes up;
    @raise Server_error when the server turns the connection away (its
    message verbatim, e.g. [busy: too many clients]) or closes it during
    the handshake;
    @raise Failure on a handshake mismatch. *)

val close : t -> unit
(** Close the descriptor without saying BYE (the mid-batch-disconnect
    tests use this to hang up rudely). *)

val bye : t -> unit
(** Orderly goodbye: BYE, await OK, close. *)

val shutdown : t -> unit
(** Stop the whole server: SHUTDOWN, await OK, close. *)

val submit : t -> arrival:float -> size:float -> int
(** One SUBMIT frame; returns the job id. *)

val submit_batch : t -> arrivals:float array -> sizes:float array -> ?off:int -> ?len:int -> unit -> int
(** One BATCH frame carrying [len] jobs (default: all of [arrivals]);
    returns the first id — the batch gets ids [first .. first+len-1].
    @raise Invalid_argument on an empty or oversized batch. *)

val advance : t -> float -> float * int * int
(** ADVANCE to the horizon; returns [(now, completed, alive)]. *)

val drain : t -> float * int * int
(** DRAIN; returns [(now, completed, alive)]. *)

val stats : t -> Rr_engine.Live.stats
(** STATS; the 15 fields decode bit-exactly off the wire. *)

val snapshot : t -> bytes
(** SNAPSHOT; the engine's serialized bytes, as {!Rr_engine.Live.to_bytes}. *)

val restore : t -> bytes -> unit
(** RESTORE from bytes previously obtained via {!snapshot}. *)

val send_raw : t -> bytes -> unit
(** Write raw bytes with no framing or reply wait — for tests that need
    to speak mid-frame garbage at the server. *)
