(* Blocking binary-protocol client.  Requests are built in a write ring
   and flushed whole; replies are read into a read ring until one full
   frame is available, then decoded in place.  Both rings are reused
   across calls, so a steady request stream allocates nothing per
   exchange beyond what the caller asks for (snapshot bytes). *)

type t = { fd : Unix.file_descr; rd : Ring.t; wr : Ring.t }

exception Server_error of string

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let write_all t =
  while not (Ring.is_empty t.wr) do
    match Ring.write_to_fd t.wr t.fd with
    | `Wrote _ | `Again -> ()
    | `Closed -> raise (Server_error "connection closed by server")
  done

(* Block until [n] readable bytes are buffered. *)
let rec fill t n =
  if Ring.length t.rd < n then
    match Ring.read_from_fd t.rd t.fd with
    | `Read _ | `Again -> fill t n
    | `Eof | `Closed -> raise (Server_error "connection closed by server")

(* One reply frame: returns (op, payload offset, payload length); the
   offsets point into [Ring.buf t.rd] and are valid until the frame is
   consumed (callers decode, then [finish]). *)
let read_frame t =
  fill t Frame.header_size;
  match Frame.parse_header (Ring.buf t.rd) (Ring.pos t.rd) with
  | Error msg -> raise (Server_error ("corrupt reply header: " ^ msg))
  | Ok (op, plen) ->
      fill t (Frame.header_size + plen);
      (op, Ring.pos t.rd + Frame.header_size, plen)

let finish t plen = Ring.consume t.rd (Frame.header_size + plen)

let expect t want =
  let op, p, plen = read_frame t in
  if op = Frame.op_err then begin
    let msg = Bytes.sub_string (Ring.buf t.rd) p plen in
    finish t plen;
    raise (Server_error msg)
  end;
  if op <> want then begin
    finish t plen;
    raise
      (Server_error
         (Printf.sprintf "expected %s reply, got %s" (Frame.op_name want) (Frame.op_name op)))
  end;
  (p, plen)

let connect ?(retries = 100) path =
  (match Sys.os_type with
  | "Unix" | "Cygwin" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  (* The socket is closed on every failed attempt, retried or not. *)
  let rec go attempt =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception (Unix.Unix_error (err, _, _) as e) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if (err = Unix.ECONNREFUSED || err = Unix.ENOENT) && attempt < retries then begin
          Unix.sleepf 0.02;
          go (attempt + 1)
        end
        else raise e
  in
  let fd = go 0 in
  let t = { fd; rd = Ring.create ~capacity:8192 (); wr = Ring.create ~capacity:8192 () } in
  let refused () =
    match read_frame t with
    | op, p, plen when op = Frame.op_err ->
        raise (Server_error (Bytes.sub_string (Ring.buf t.rd) p plen))
    | _ -> failwith "Client.connect: server did not speak the RRSV protocol"
  in
  try
    Ring.add_string t.wr Frame.hello;
    (* A server that turned us away may already have closed the socket,
       failing this write; its answer is still there to read. *)
    (try write_all t with Server_error _ -> ());
    (* The server answers with its own hello — or an ERR frame (bad
       hello).  Both start with 8 bytes; disambiguate on the first byte,
       which is 'R' for a hello and an opcode byte for a frame.  A server
       that is full (or out of descriptors) sends its hello and then ERR
       [busy], in one write: the server says nothing unasked, so an ERR
       already buffered behind the hello is that refusal. *)
    fill t Frame.hello_len;
    if not (Frame.hello_matches (Ring.buf t.rd) (Ring.pos t.rd)) then refused ();
    Ring.consume t.rd Frame.hello_len;
    if Ring.length t.rd > 0 && Char.code (Bytes.get (Ring.buf t.rd) (Ring.pos t.rd)) = Frame.op_err
    then refused ();
    t
  with e ->
    close t;
    raise e

let submit t ~arrival ~size =
  Frame.put_submit t.wr ~arrival ~size;
  write_all t;
  let p, plen = expect t Frame.op_ok_id in
  let id = Frame.get_u64 (Ring.buf t.rd) p in
  finish t plen;
  id

let submit_batch t ~arrivals ~sizes ?(off = 0) ?len () =
  let len = match len with Some l -> l | None -> Array.length arrivals - off in
  Frame.put_batch t.wr ~arrivals ~sizes ~off ~len;
  write_all t;
  let p, plen = expect t Frame.op_ok_id in
  let first = Frame.get_u64 (Ring.buf t.rd) p in
  finish t plen;
  first

let ok_now t =
  let p, plen = expect t Frame.op_ok_now in
  let b = Ring.buf t.rd in
  let now = Frame.get_f64 b p in
  let completed = Frame.get_u64 b (p + 8) in
  let alive = Frame.get_u64 b (p + 16) in
  finish t plen;
  (now, completed, alive)

let advance t horizon =
  Frame.put_advance t.wr horizon;
  write_all t;
  ok_now t

let drain t =
  Frame.put_empty t.wr ~op:Frame.op_drain;
  write_all t;
  ok_now t

let stats t =
  Frame.put_empty t.wr ~op:Frame.op_stats;
  write_all t;
  let p, plen = expect t Frame.op_ok_stats in
  if plen <> Frame.stats_size then begin
    finish t plen;
    raise (Server_error "malformed STATS reply")
  end;
  let s = Frame.stats_of_payload (Ring.buf t.rd) p in
  finish t plen;
  s

let snapshot t =
  Frame.put_empty t.wr ~op:Frame.op_snapshot;
  write_all t;
  let p, plen = expect t Frame.op_ok_snapshot in
  let b = Bytes.sub (Ring.buf t.rd) p plen in
  finish t plen;
  b

let restore t bytes =
  Frame.put_payload t.wr ~op:Frame.op_restore bytes;
  write_all t;
  let _, plen = expect t Frame.op_ok in
  finish t plen

let bye t =
  Frame.put_empty t.wr ~op:Frame.op_bye;
  write_all t;
  (let _, plen = expect t Frame.op_ok in
   finish t plen);
  close t

let shutdown t =
  Frame.put_empty t.wr ~op:Frame.op_shutdown;
  write_all t;
  (let _, plen = expect t Frame.op_ok in
   finish t plen);
  close t

let send_raw t b =
  Ring.add_subbytes t.wr b 0 (Bytes.length b);
  write_all t
