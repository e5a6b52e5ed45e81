(* Multiplexed serving loop.  See server.mli for the contract.

   Single-threaded by design: the engine is one sequential simulation,
   so the win is not parallel dispatch but keeping the wire out of the
   engine's way — reads and writes are batched through per-connection
   rings, frames decode in place out of the read ring, BATCH frames
   amortize up to 64Ki submits per syscall, and select wakes the loop
   only when a descriptor actually has work.  Every connection owns its
   two rings for its whole lifetime, so steady-state traffic allocates
   nothing per event on the server side.

   Failure discipline mirrors the text protocol: engine faults answer
   ERR and keep the connection; protocol corruption answers ERR and
   closes it; a mid-frame disconnect discards only that connection's
   buffered bytes. *)

module Live = Rr_engine.Live

type proto = Binary | Text

type config = {
  backlog : int;
  max_clients : int;
  max_frame_payload : int;
  max_pending : int;
}

let default_config =
  {
    backlog = 64;
    max_clients = 64;
    max_frame_payload = 64 * 1024 * 1024;
    max_pending = 64 * 1024 * 1024;
  }

type conn = {
  fd : Unix.file_descr;
  rd : Ring.t;
  wr : Ring.t;
  mutable greeted : bool;  (* binary hello exchanged *)
  mutable read_closed : bool;  (* peer sent EOF: flush replies, then close *)
  mutable closing : bool;  (* stop reading; close once [wr] drains *)
  mutable dead : bool;  (* close at the next reap, replies dropped *)
}

(* Reusable decode scratch for BATCH frames: the wire floats land in
   unboxed float arrays handed straight to [Live.submit_batch], so a
   batch costs zero per-job heap allocation on the way in. *)
type scratch = { mutable arrivals : float array; mutable sizes : float array }

let scratch_reserve s n =
  if Array.length s.arrivals < n then begin
    let cap = ref (Int.max 1024 (Array.length s.arrivals)) in
    while !cap < n do
      cap := !cap * 2
    done;
    s.arrivals <- Array.make !cap 0.;
    s.sizes <- Array.make !cap 0.
  end

(* ------------------------------------------------------------------ *)
(* Binary dispatch                                                     *)
(* ------------------------------------------------------------------ *)

let engine_error_message = function
  | Invalid_argument m | Failure m | Sys_error m -> Some m
  | Rr_engine.Simulator.Event_limit_exceeded { limit; now } ->
      Some (Printf.sprintf "event budget exhausted: %d events by t = %g" limit now)
  | Rr_engine.Simulator.Invalid_allocation m -> Some ("invalid allocation: " ^ m)
  | _ -> None

(* Run one engine operation; faults become ERR replies on [wr] and the
   connection stays open (same contract as the text protocol). *)
let guarded wr f =
  try f () with
  | e when engine_error_message e <> None ->
      Frame.put_err wr (Option.get (engine_error_message e))

let dispatch_binary ~config ~engine ~scratch ~stop conn op p plen =
  let rdbuf = Ring.buf conn.rd in
  let wr = conn.wr in
  let proto_err msg =
    Frame.put_err wr msg;
    conn.closing <- true
  in
  if op = Frame.op_submit then
    if plen <> 16 then proto_err "SUBMIT payload must be 16 bytes"
    else
      let arrival = Frame.get_f64 rdbuf p and size = Frame.get_f64 rdbuf (p + 8) in
      guarded wr (fun () ->
          let id = Live.submit !engine ~arrival ~size in
          Frame.put_ok_id wr ~first_id:id ~count:1)
  else if op = Frame.op_batch then
    if plen < 4 then proto_err "BATCH payload too short"
    else
      let count = Frame.get_u32 rdbuf p in
      if count < 1 || count > Frame.max_batch then
        proto_err (Printf.sprintf "BATCH count %d out of range 1..%d" count Frame.max_batch)
      else if plen <> 4 + (16 * count) then
        proto_err
          (Printf.sprintf "BATCH payload %d bytes does not match count %d" plen count)
      else begin
        scratch_reserve scratch count;
        let arrivals = scratch.arrivals and sizes = scratch.sizes in
        for i = 0 to count - 1 do
          arrivals.(i) <- Frame.get_f64 rdbuf (p + 4 + (16 * i));
          sizes.(i) <- Frame.get_f64 rdbuf (p + 12 + (16 * i))
        done;
        guarded wr (fun () ->
            let first = Live.submit_batch !engine ~arrivals ~sizes ~len:count () in
            Frame.put_ok_id wr ~first_id:first ~count)
      end
  else if op = Frame.op_advance then
    if plen <> 8 then proto_err "ADVANCE payload must be 8 bytes"
    else
      let horizon = Frame.get_f64 rdbuf p in
      guarded wr (fun () ->
          Live.advance !engine horizon;
          let s = Live.query !engine in
          Frame.put_ok_now wr ~now:s.Live.now ~completed:s.Live.completed ~alive:s.Live.alive)
  else if op = Frame.op_drain then
    if plen <> 0 then proto_err "DRAIN carries no payload"
    else
      guarded wr (fun () ->
          Live.drain !engine;
          let s = Live.query !engine in
          Frame.put_ok_now wr ~now:s.Live.now ~completed:s.Live.completed ~alive:s.Live.alive)
  else if op = Frame.op_stats then
    if plen <> 0 then proto_err "STATS carries no payload"
    else Frame.put_stats wr (Live.query !engine)
  else if op = Frame.op_snapshot then
    if plen <> 0 then proto_err "SNAPSHOT carries no payload"
    else guarded wr (fun () -> Frame.put_payload wr ~op:Frame.op_ok_snapshot (Live.to_bytes !engine))
  else if op = Frame.op_restore then
    guarded wr (fun () ->
        engine := Live.of_bytes (Bytes.sub rdbuf p plen);
        Frame.put_empty wr ~op:Frame.op_ok)
  else if op = Frame.op_bye then begin
    Frame.put_empty wr ~op:Frame.op_ok;
    conn.closing <- true
  end
  else if op = Frame.op_shutdown then begin
    Frame.put_empty wr ~op:Frame.op_ok;
    conn.closing <- true;
    stop := true
  end
  else begin
    ignore config;
    proto_err (Printf.sprintf "unknown opcode %s" (Frame.op_name op))
  end

let rec process_binary ~config ~engine ~scratch ~stop conn =
  if conn.closing || conn.dead then ()
  else if not conn.greeted then begin
    if Ring.length conn.rd >= Frame.hello_len then
      if Frame.hello_matches (Ring.buf conn.rd) (Ring.pos conn.rd) then begin
        Ring.consume conn.rd Frame.hello_len;
        Ring.add_string conn.wr Frame.hello;
        conn.greeted <- true;
        process_binary ~config ~engine ~scratch ~stop conn
      end
      else begin
        Frame.put_err conn.wr "bad hello: expected RRSV protocol version 1";
        conn.closing <- true
      end
  end
  else if Ring.length conn.rd >= Frame.header_size then
    match Frame.parse_header (Ring.buf conn.rd) (Ring.pos conn.rd) with
    | Error msg ->
        Frame.put_err conn.wr msg;
        conn.closing <- true
    | Ok (op, plen) ->
        if plen > config.max_frame_payload then begin
          Frame.put_err conn.wr
            (Printf.sprintf "frame payload %d exceeds limit %d" plen config.max_frame_payload);
          conn.closing <- true
        end
        else if Ring.length conn.rd >= Frame.header_size + plen then begin
          dispatch_binary ~config ~engine ~scratch ~stop conn op
            (Ring.pos conn.rd + Frame.header_size)
            plen;
          Ring.consume conn.rd (Frame.header_size + plen);
          process_binary ~config ~engine ~scratch ~stop conn
        end

(* ------------------------------------------------------------------ *)
(* Text dispatch (one line in, one line out, via Session)              *)
(* ------------------------------------------------------------------ *)

let find_newline ring =
  let b = Ring.buf ring and p = Ring.pos ring and n = Ring.length ring in
  let rec go i = if i >= n then None else if Bytes.get b (p + i) = '\n' then Some i else go (i + 1) in
  go 0

let rec process_text ~engine ~stop conn =
  if conn.closing || conn.dead then ()
  else
    match find_newline conn.rd with
    | None -> ()
    | Some i ->
        let line = Bytes.sub_string (Ring.buf conn.rd) (Ring.pos conn.rd) i in
        Ring.consume conn.rd (i + 1);
        (match Session.handle engine line with
        | Session.Silent -> ()
        | Session.Reply r ->
            Ring.add_string conn.wr r;
            Ring.add_char conn.wr '\n'
        | Session.Quit ->
            Ring.add_string conn.wr "OK bye\n";
            conn.closing <- true;
            (* The text daemon exits on QUIT, as it always has. *)
            stop := true);
        process_text ~engine ~stop conn

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)
(* ------------------------------------------------------------------ *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let new_conn fd =
  {
    fd;
    rd = Ring.create ~capacity:8192 ();
    wr = Ring.create ~capacity:8192 ();
    greeted = false;
    read_closed = false;
    closing = false;
    dead = false;
  }

let run ?(config = default_config) ~proto ~engine ~path () =
  (match Sys.os_type with
  | "Unix" | "Cygwin" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lsock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conns = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> close_quietly c.fd) !conns;
      close_quietly lsock;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind lsock (Unix.ADDR_UNIX path);
      Unix.listen lsock config.backlog;
      Unix.set_nonblock lsock;
      let stop = ref false in
      let scratch = { arrivals = [||]; sizes = [||] } in
      let process conn =
        match proto with
        | Binary -> process_binary ~config ~engine ~scratch ~stop conn
        | Text -> process_text ~engine ~stop conn
      in
      let effective_max_clients =
        match proto with Text -> 1 | Binary -> config.max_clients
      in
      let rec accept_all () =
        match Unix.accept ~cloexec:true lsock with
        | fd, _ ->
            Unix.set_nonblock fd;
            let active = List.length (List.filter (fun c -> not c.closing) !conns) in
            let c = new_conn fd in
            if active >= effective_max_clients then begin
              (* Explicit rejection instead of silently queueing (or
                 hanging) the extra client. *)
              (match proto with
              | Text -> Ring.add_string c.wr "ERR busy\n"
              | Binary ->
                  Ring.add_string c.wr Frame.hello;
                  Frame.put_err c.wr "busy: too many clients");
              c.closing <- true
            end;
            conns := c :: !conns;
            accept_all ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ()
      in
      let handle_readable conn =
        match Ring.read_from_fd conn.rd conn.fd with
        | `Eof ->
            (* Half-close: anything buffered was already parsed on the
               read that delivered it; a partial trailing frame or line
               is discarded with the connection.  Replies still queued
               keep flushing until drained. *)
            conn.read_closed <- true
        | `Closed ->
            (* A reset (a rude hangup with replies unread) kills only this
               connection; its queued replies have nowhere to go. *)
            conn.dead <- true
        | `Again -> ()
        | `Read _ ->
            process conn;
            if Ring.length conn.wr > config.max_pending then
              (* Shed policy: a client that stops reading while replies
                 accumulate past the cap is dropped outright. *)
              conn.dead <- true
      in
      let handle_writable conn =
        match Ring.write_to_fd conn.wr conn.fd with
        | `Closed -> conn.dead <- true
        | `Again | `Wrote _ -> ()
      in
      let reap () =
        conns :=
          List.filter
            (fun c ->
              if (not c.dead) && (c.closing || c.read_closed) && Ring.is_empty c.wr then
                c.dead <- true;
              if c.dead then close_quietly c.fd;
              not c.dead)
            !conns
      in
      while not !stop do
        let readers =
          List.filter (fun c -> not (c.read_closed || c.closing || c.dead)) !conns
        in
        let writers = List.filter (fun c -> not (Ring.is_empty c.wr)) !conns in
        let rds = lsock :: List.map (fun c -> c.fd) readers in
        let wrs = List.map (fun c -> c.fd) writers in
        match Unix.select rds wrs [] (-1.) with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | r, w, _ ->
            if List.memq lsock r then accept_all ();
            List.iter (fun c -> if List.memq c.fd r then handle_readable c) readers;
            List.iter (fun c -> if List.memq c.fd w then handle_writable c) writers;
            reap ()
      done;
      (* Shutdown: give pending replies (the OK that acknowledged the
         stop, and any other client's queued output) a bounded chance to
         flush, then close everything. *)
      let deadline = Unix.gettimeofday () +. 2.0 in
      let rec flush_phase () =
        reap ();
        let writers = List.filter (fun c -> not (Ring.is_empty c.wr || c.dead)) !conns in
        if writers <> [] && Unix.gettimeofday () < deadline then begin
          (match Unix.select [] (List.map (fun c -> c.fd) writers) [] 0.1 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | _, w, _ ->
              List.iter (fun c -> if List.memq c.fd w then handle_writable c) writers);
          flush_phase ()
        end
      in
      flush_phase ())
