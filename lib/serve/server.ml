(* Multiplexed serving loop.  See server.mli for the contract.

   Single-threaded by design: the engine is one sequential simulation,
   so the win is not parallel dispatch but keeping the wire out of the
   engine's way — reads and writes are batched through per-connection
   rings, frames decode in place out of the read ring, BATCH frames
   amortize up to 64Ki submits per syscall, and the poller (epoll)
   wakes the loop only for descriptors that have work.  A
   request costs one wake-up, one read and one write: replies go out
   right after the request that made them, and write interest is
   registered only when the socket takes less than all of them.  Every
   connection owns its two rings for its whole lifetime and sits in an
   fd-indexed table, so steady-state traffic allocates nothing per
   event on the server side.

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
  mutable dead : bool;  (* close now, replies dropped *)
  mutable counted : bool;  (* counts against max_clients: open and not closing *)
  mutable interest : int;  (* Poller bits registered for [fd] *)
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
        (match Session.handle ~files:false engine line with
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
    counted = true;
    interest = 0;
  }

(* What a connection turned away at accept time reads before the close:
   the full-house answer and the out-of-descriptors one are the same. *)
let busy_reply = function
  | Text -> "ERR busy\n"
  | Binary ->
      let r = Ring.create ~capacity:64 () in
      Ring.add_string r Frame.hello;
      Frame.put_err r "busy: too many clients";
      Bytes.sub_string (Ring.buf r) (Ring.pos r) (Ring.length r)

(* A descriptor held in reserve, so that running out of descriptors
   still lets the loop accept a newcomer just to turn it away. *)
let reserve_descriptor () =
  try Some (Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0)
  with Unix.Unix_error _ -> None

let starved_retry_ms = 100

let run ?(config = default_config) ~proto ~engine ~path () =
  (match Sys.os_type with
  | "Unix" | "Cygwin" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let poller = Poller.create () in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lsock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Connections by descriptor number; touched only when one opens,
     closes or changes what it waits for. *)
  let conns = ref (Array.make 64 None) in
  let spare = ref None in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (Option.iter (fun c -> close_quietly c.fd)) !conns;
      Option.iter close_quietly !spare;
      Poller.close poller;
      close_quietly lsock;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind lsock (Unix.ADDR_UNIX path);
      Unix.listen lsock config.backlog;
      Unix.set_nonblock lsock;
      spare := reserve_descriptor ();
      let listener = Poller.index lsock in
      let listening = ref false in
      let listen_on want =
        if want <> !listening then begin
          Poller.set poller lsock
            ~old:(if !listening then Poller.readable else 0)
            (if want then Poller.readable else 0);
          listening := want
        end
      in
      listen_on true;
      (* Out of descriptors with no spare to give up, the listener is off
         (a level-triggered one would spin) and [starved]: the loop tries
         again for a spare every [starved_retry_ms] and after every close,
         and takes newcomers again once it has one. *)
      let starved = ref false in
      let recover () =
        if !spare = None then spare := reserve_descriptor ();
        if !spare <> None then begin
          starved := false;
          listen_on true
        end
      in
      let stop = ref false in
      let open_conns = ref 0 in
      let active = ref 0 in (* open connections that are not closing *)
      let scratch = { arrivals = [||]; sizes = [||] } in
      let busy = busy_reply proto in
      let process conn =
        match proto with
        | Binary -> process_binary ~config ~engine ~scratch ~stop conn
        | Text -> process_text ~engine ~stop conn
      in
      let effective_max_clients =
        match proto with Text -> 1 | Binary -> config.max_clients
      in
      (* Explicit rejection instead of silently queueing (or hanging) the
         extra client: the reply fits an empty socket buffer, so one
         write sends it. *)
      let refuse fd =
        (try
           Unix.set_nonblock fd;
           ignore (Unix.write_substring fd busy 0 (String.length busy) : int)
         with Unix.Unix_error _ -> ());
        close_quietly fd
      in
      let admit fd =
        Unix.set_nonblock fd;
        let i = Poller.index fd in
        if i >= Array.length !conns then begin
          let grown = Array.make (Int.max (i + 1) (2 * Array.length !conns)) None in
          Array.blit !conns 0 grown 0 (Array.length !conns);
          conns := grown
        end;
        let c = new_conn fd in
        c.interest <- Poller.readable;
        Poller.set poller fd ~old:0 c.interest;
        !conns.(i) <- Some c;
        incr open_conns;
        incr active
      in
      let close_conn c =
        Poller.set poller c.fd ~old:c.interest 0;
        !conns.(Poller.index c.fd) <- None;
        close_quietly c.fd;
        decr open_conns;
        if c.counted then decr active;
        (* A freed descriptor refills the reserve. *)
        if not !stop then recover ()
      in
      (* After every event on [c]: close it once it has nothing left to
         do, else register what it now waits for. *)
      let settle c =
        if (not c.dead) && (c.closing || c.read_closed) && Ring.is_empty c.wr then
          c.dead <- true;
        if c.dead then close_conn c
        else begin
          if c.closing && c.counted then begin
            c.counted <- false;
            decr active
          end;
          let want =
            (if c.closing || c.read_closed then 0 else Poller.readable)
            lor if Ring.is_empty c.wr then 0 else Poller.writable
          in
          if want <> c.interest then begin
            Poller.set poller c.fd ~old:c.interest want;
            c.interest <- want
          end
        end
      in
      let flush c =
        match Ring.write_to_fd c.wr c.fd with
        | `Closed -> c.dead <- true
        | `Again | `Wrote _ -> ()
      in
      let on_ready c flags =
        let was_waiting_to_write = c.interest land Poller.writable <> 0 in
        if flags land Poller.readable <> 0 && c.interest land Poller.readable <> 0 then begin
          (* One read per readiness event: reading on to EAGAIN would add
             a syscall to every small frame. *)
          match Ring.read_from_fd c.rd c.fd with
          | `Eof ->
              (* Half-close: anything buffered was already parsed on the
                 read that delivered it; a partial trailing frame or line
                 is discarded with the connection.  Replies still queued
                 keep flushing until drained. *)
              c.read_closed <- true
          | `Closed ->
              (* A reset (a rude hangup with replies unread) kills only
                 this connection; its queued replies have nowhere to go. *)
              c.dead <- true
          | `Again -> ()
          | `Read _ ->
              process c;
              if Ring.length c.wr > config.max_pending then
                (* Shed policy, checked before any reply goes out: a
                   client that stops reading while replies accumulate
                   past the cap is dropped outright. *)
                c.dead <- true
        end;
        (* Eager write: a reply goes out right after the request that
           made it.  Write interest is registered only when the socket
           takes less than all of it (see [settle]). *)
        if (not c.dead) && (not (Ring.is_empty c.wr))
           && ((not was_waiting_to_write) || flags land Poller.writable <> 0)
        then flush c;
        settle c
      in
      let rec accept_all () =
        match Unix.accept ~cloexec:true lsock with
        | fd, _ ->
            if !active >= effective_max_clients then refuse fd else admit fd;
            accept_all ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> accept_all ()
        | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> (
            (* Out of descriptors: give up the reserve to take the
               newcomer, turn it away, take the reserve back.  With no
               reserve, starve (see [recover]). *)
            match !spare with
            | None ->
                listen_on false;
                starved := true
            | Some s ->
                close_quietly s;
                spare := None;
                let took =
                  match Unix.accept ~cloexec:true lsock with
                  | fd, _ ->
                      refuse fd;
                      true
                  | exception Unix.Unix_error _ -> false
                in
                spare := reserve_descriptor ();
                (* Linux answers EMFILE before it looks at the backlog:
                   go on only while someone was actually waiting. *)
                if took then accept_all ())
      in
      (* One loop serves and then, once a request has stopped the server,
         gives pending replies (the OK that acknowledged the stop, and any
         other client's queued output) a bounded chance to flush. *)
      let deadline = ref infinity in
      while not (!stop && (!open_conns = 0 || Unix.gettimeofday () >= !deadline)) do
        let timeout_ms =
          if !stop then
            Int.max 0 (int_of_float (Float.ceil ((!deadline -. Unix.gettimeofday ()) *. 1000.)))
          else if !starved then starved_retry_ms
          else -1
        in
        let n = Poller.wait poller ~timeout_ms in
        for i = 0 to n - 1 do
          let fd = Poller.ready_fd poller i in
          if fd = listener then (if not !stop then accept_all ())
          else
            match !conns.(fd) with
            | Some c -> on_ready c (Poller.ready_flags poller i)
            | None -> ()
        done;
        if !starved && not !stop then recover ();
        if !stop && !deadline = infinity then begin
          deadline := Unix.gettimeofday () +. 2.0;
          listen_on false;
          Array.iter
            (Option.iter (fun c ->
                 c.closing <- true;
                 settle c))
            !conns
        end
      done)
