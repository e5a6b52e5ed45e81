(* The text line protocol of [rr_cli serve]: one request per line, one
   reply per line, replies starting OK or ERR.  This is the original
   stdio protocol, kept verbatim as the debuggability escape hatch
   behind [--proto text] — the binary framed protocol (frame.ml,
   server.ml) is the production path.

   Lines from interactive tools (telnet, netcat in CRLF mode) arrive
   with a trailing '\r' and sometimes embedded '\t'; both are folded
   into token separators before parsing so a CRLF client sees the same
   protocol as an LF one (regression-pinned in test_serve.ml).

   Numbers print with %.17g so a client can round-trip every float. *)

module Live = Rr_engine.Live

type outcome = Silent | Reply of string | Quit

let stats_line (s : Live.stats) =
  Printf.sprintf
    "OK submitted=%d completed=%d alive=%d pending=%d now=%.17g events=%d makespan=%.17g \
     max_alive=%d mean_flow=%.17g max_flow=%.17g power_sum=%.17g norm=%.17g p50=%.17g \
     p90=%.17g p99=%.17g"
    s.submitted s.completed s.alive s.pending s.now s.events s.makespan s.max_alive s.mean_flow
    s.max_flow s.power_sum s.norm s.p50 s.p90 s.p99

(* One request -> Reply / Quit / Silent (blank line).  Engine faults
   (bad arguments, event budget, unreadable snapshots) become ERR replies
   so one bad request never kills the session. *)
let handle (engine : Live.t ref) line =
  let normalized =
    String.map (function '\r' | '\t' -> ' ' | c -> c) (String.trim line)
  in
  let parts = String.split_on_char ' ' normalized |> List.filter (fun s -> s <> "") in
  match parts with
  | [] -> Silent
  | verb :: args -> (
      let reply =
        try
          match (String.uppercase_ascii verb, args) with
          | "SUBMIT", [ t; size ] -> (
              match (float_of_string_opt t, float_of_string_opt size) with
              | Some arrival, Some size ->
                  Printf.sprintf "OK %d" (Live.submit !engine ~arrival ~size)
              | _ -> "ERR usage: SUBMIT <arrival> <size>")
          | "ADVANCE", [ t ] -> (
              match float_of_string_opt t with
              | Some horizon ->
                  Live.advance !engine horizon;
                  let s = Live.query !engine in
                  Printf.sprintf "OK now=%.17g completed=%d alive=%d" s.Live.now
                    s.Live.completed s.Live.alive
              | None -> "ERR usage: ADVANCE <time>")
          | "DRAIN", [] ->
              Live.drain !engine;
              let s = Live.query !engine in
              Printf.sprintf "OK now=%.17g completed=%d" s.Live.now s.Live.completed
          | "STATS", [] -> stats_line (Live.query !engine)
          | "SNAPSHOT", [ path ] ->
              Live.save !engine path;
              "OK"
          | "RESTORE", [ path ] ->
              engine := Live.load path;
              "OK"
          | "QUIT", [] -> ""
          | verb, _ -> Printf.sprintf "ERR unknown command %s" verb
        with
        | Invalid_argument msg | Failure msg -> "ERR " ^ msg
        | Sys_error msg -> "ERR " ^ msg
        | Rr_engine.Simulator.Event_limit_exceeded { limit; now } ->
            Printf.sprintf "ERR event budget exhausted: %d events by t = %g" limit now
        | Rr_engine.Simulator.Invalid_allocation msg -> "ERR invalid allocation: " ^ msg
      in
      if String.uppercase_ascii verb = "QUIT" && args = [] then Quit else Reply reply)

(* Channel-driven session for the stdio mode.  Returns [true] when the
   client said QUIT (as opposed to EOF). *)
let run_channels engine ic oc =
  let reply r =
    Out_channel.output_string oc r;
    Out_channel.output_char oc '\n';
    Out_channel.flush oc
  in
  let rec loop () =
    match In_channel.input_line ic with
    | None -> false
    | Some line -> (
        match handle engine line with
        | Silent -> loop ()
        | Reply r ->
            reply r;
            loop ()
        | Quit ->
            reply "OK bye";
            true)
  in
  loop ()
