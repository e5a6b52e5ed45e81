(** The text line protocol of [rr_cli serve] — the original stdio
    protocol, kept as the human-debuggable escape hatch behind
    [--proto text] (the binary framed protocol in {!Frame}/{!Server} is
    the production path).

    One request per line, one reply per line; replies start with [OK] or
    [ERR].  A faulting request (bad arguments, exhausted event budget,
    unreadable snapshot) answers [ERR] and leaves the session running.
    Trailing ['\r'] (CRLF clients: telnet, netcat) and embedded tabs are
    treated as token separators, so CRLF and LF clients see the same
    protocol. *)

type outcome =
  | Silent  (** Blank line: no reply. *)
  | Reply of string
  | Quit  (** [QUIT]: reply [OK bye], then end the session. *)

val handle : files:bool -> Rr_engine.Live.t ref -> string -> outcome
(** Parse and execute one request line against the engine.  [RESTORE]
    replaces the engine in the ref; everything else mutates in place.
    [~files:true] (stdin/stdout) lets [SNAPSHOT <path>] and
    [RESTORE <path>] name files; [~files:false] (a socket) makes both
    answer [ERR] and point to the binary SNAPSHOT/RESTORE frames. *)

val stats_line : Rr_engine.Live.stats -> string
(** The one-line [STATS] reply ([%.17g] floats, round-trippable). *)

val run_channels : Rr_engine.Live.t ref -> in_channel -> out_channel -> bool
(** Serve one blocking session over channels (the stdio mode); returns
    [true] on QUIT, [false] on EOF. *)
