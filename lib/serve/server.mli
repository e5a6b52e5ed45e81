(** Multiplexed multi-client serving loop for [rr_cli serve].

    One engine, one thread, many clients: a single readiness loop over
    non-blocking descriptors ({!Poller}: level-triggered epoll, so Linux
    only) accepts concurrent connections and drives each through
    per-connection grow-on-demand read/write rings ({!Ring}), so a slow
    or half-closed client never blocks the others.  Connections
    sit in a table indexed by descriptor number that is touched only
    when a connection opens, closes or changes what it waits for, so a
    wake-up costs O(ready descriptors), and descriptor numbers have no
    FD_SETSIZE cap.

    Two protocols share the loop:

    - [Binary] — the length-prefixed framed protocol ({!Frame},
      PROTOCOL.md): zero-copy parse out of the read ring, batched
      submits (up to {!Frame.max_batch} jobs per frame), snapshot bytes
      over the wire, any number of concurrent clients (up to
      [max_clients]), server shutdown via the SHUTDOWN frame.
    - [Text] — the line protocol ({!Session}): one client at a time
      (the engine is a single sequential simulation; interleaving text
      clients would be order-fragile), extra connections answered with
      an explicit [ERR busy] line and closed instead of queueing
      silently, daemon exit on [QUIT].  [SNAPSHOT <path>] and
      [RESTORE <path>] answer [ERR] on a socket: a path would let any
      local client write or read any file the daemon can reach; the
      binary SNAPSHOT/RESTORE frames carry the bytes instead.

    Flow control: each readiness event gets one read; the replies it
    produces are written at once (eager write), and write interest is
    registered only when the socket takes less than all of them, so a
    request costs one wake-up, one read and one write.  A connection
    whose un-drained replies exceed [max_pending] bytes after a read is
    shed before any of them is written (closed and dropped — the
    documented policy for a consumer that stops reading).  A client
    disconnecting mid-frame (or mid-batch) simply discards its buffered
    partial input; other sessions and the engine are untouched.

    Running out of descriptors (EMFILE, ENFILE) does not stop the loop:
    it keeps one spare descriptor, gives it up to accept the newcomer,
    answers it busy exactly like a client past [max_clients], and takes
    the spare back; existing connections are served throughout.  With
    no spare to be had, it stops accepting and tries again for one
    every 100 ms and whenever a connection closes.  Calls a signal
    interrupts are retried.

    Engine faults (bad arguments, exhausted event budget, unreadable
    snapshots) answer an ERR frame/line and leave the connection open;
    protocol corruption (bad hello, unknown opcode, nonzero reserved
    bytes, oversized or malformed frame) answers ERR and closes that
    connection. *)

type proto = Binary | Text

type config = {
  backlog : int;  (** [listen] backlog (default 64). *)
  max_clients : int;
      (** Concurrent connections before new ones are turned away
          (default 64; [Text] mode always serves one at a time). *)
  max_frame_payload : int;
      (** Largest accepted frame payload in bytes (default 64 MiB —
          ample for a BATCH of {!Frame.max_batch} and for RESTORE
          payloads); larger frames answer ERR and close. *)
  max_pending : int;
      (** Shed threshold: pending reply bytes before a non-reading
          client is disconnected (default 64 MiB). *)
}

val default_config : config

val run :
  ?config:config ->
  proto:proto ->
  engine:Rr_engine.Live.t ref ->
  path:string ->
  unit ->
  unit
(** Bind a Unix domain socket at [path] (unlinking any stale one),
    serve until a BYE-initiated shutdown ([Binary]: SHUTDOWN frame;
    [Text]: QUIT line), then flush pending replies, close every
    connection and unlink [path].  The engine persists across client
    connects and disconnects; RESTORE replaces the value in the ref.
    SIGPIPE is ignored process-wide (writes to dead peers surface as
    [EPIPE] results instead of killing the daemon). *)
