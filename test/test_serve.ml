(* Tests for the serving layer (lib/serve) and Live.submit_batch.

   The load-bearing properties:

   - rings: FIFO byte queues whose readable region stays contiguous
     across interleaved adds, consumes, compactions and growth;
   - frames: every fixed-width field round-trips the wire bit-exactly
     (STATS payloads decode to the same 15 bit patterns they encoded);
   - submit_batch: bit-identical to repeated submit, and atomic — a
     rejected batch leaves the engine untouched;
   - the multiplexed binary server: a socket-fed run reproduces an
     in-process run bit for bit, engine faults answer ERR without
     killing the connection, protocol corruption closes only the guilty
     connection, a client hanging up mid-batch (or resetting the
     socket with replies unread) never corrupts or drops others, and a
     non-reading client is shed at the configured threshold;
   - snapshot/restore over the wire: SNAPSHOT bytes from one server
     RESTOREd into a fresh server yield bit-identical STATS;
   - the text escape hatch: CRLF clients work (telnet/netcat), one
     client at a time with extras told "ERR busy" explicitly. *)

module Live = Rr_engine.Live
module Instance = Rr_workload.Instance
module Ring = Rr_serve.Ring
module Frame = Rr_serve.Frame
module Session = Rr_serve.Session
module Server = Rr_serve.Server
module Client = Rr_serve.Client

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let sock_counter = ref 0

let temp_sock () =
  incr sock_counter;
  Printf.sprintf "/tmp/rr-serve-t%d-%d.sock" (Unix.getpid ()) !sock_counter

(* Spawn a server domain on a fresh socket, run [f path], then stop the
   server (best-effort, in case [f] already did) and join the domain. *)
let with_server ?config ~proto f =
  let path = temp_sock () in
  let engine = ref (Live.create (Live.Classified Rr_engine.Policy_class.Equal_share)) in
  let d = Domain.spawn (fun () -> Server.run ?config ~proto ~engine ~path ()) in
  Fun.protect
    ~finally:(fun () ->
      (match proto with
      | Server.Binary -> (
          try Client.shutdown (Client.connect ~retries:5 path) with _ -> ())
      | Server.Text -> (
          try
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX path);
            let oc = Unix.out_channel_of_descr fd in
            output_string oc "QUIT\n";
            flush oc;
            Unix.close fd
          with _ -> ()));
      Domain.join d)
    (fun () -> f path)

(* Raw (no-handshake) socket, for text mode and corruption tests;
   retries cover the race against a server still binding. *)
let connect_raw ?(retries = 100) path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when n > 0 ->
        Unix.sleepf 0.02;
        go (n - 1)
  in
  go retries

let read_exactly fd n =
  let b = Bytes.create n in
  let rec go off =
    if off < n then
      let r = Unix.read fd b off (n - off) in
      if r = 0 then failwith "unexpected EOF" else go (off + r)
  in
  go 0;
  b

(* Read until EOF (or connection reset); returns the bytes seen. *)
let drain_to_eof fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | r ->
        Buffer.add_subbytes buf chunk 0 r;
        go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  go ();
  Buffer.contents buf

let bits = Int64.bits_of_float

let check_stats_equal name (a : Live.stats) (b : Live.stats) =
  let ci f x y = Alcotest.(check int) (name ^ " " ^ f) x y in
  let cf f x y = Alcotest.(check int64) (name ^ " " ^ f ^ " bits") (bits x) (bits y) in
  ci "submitted" a.submitted b.submitted;
  ci "completed" a.completed b.completed;
  ci "alive" a.alive b.alive;
  ci "pending" a.pending b.pending;
  ci "events" a.events b.events;
  ci "max_alive" a.max_alive b.max_alive;
  cf "now" a.now b.now;
  cf "makespan" a.makespan b.makespan;
  cf "mean_flow" a.mean_flow b.mean_flow;
  cf "max_flow" a.max_flow b.max_flow;
  cf "power_sum" a.power_sum b.power_sum;
  cf "norm" a.norm b.norm;
  cf "p50" a.p50 b.p50;
  cf "p90" a.p90 b.p90;
  cf "p99" a.p99 b.p99

(* n jobs off the replayable generator, as parallel arrays. *)
let workload ~seed ~n =
  let stream =
    Instance.Stream.generate_load ~seed
      ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
      ~load:0.9 ~machines:1 ~n ()
  in
  let next = Instance.Stream.start stream in
  let arrivals = Array.make n 0. and sizes = Array.make n 0. in
  for i = 0 to n - 1 do
    match next () with
    | Some (j : Rr_engine.Job.t) ->
        arrivals.(i) <- j.arrival;
        sizes.(i) <- j.size
    | None -> failwith "stream ended early"
  done;
  (arrivals, sizes)

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)
(* ------------------------------------------------------------------ *)

(* Interleaved adds and consumes against a reference string, with chunk
   sizes chosen to force both compaction and growth past the tiny
   initial capacity. *)
let test_ring_fifo () =
  let r = Ring.create ~capacity:8 () in
  let rng = Random.State.make [| 42 |] in
  let expected = Buffer.create 1024 in
  let consumed = Buffer.create 1024 in
  for _ = 1 to 500 do
    let n = 1 + Random.State.int rng 50 in
    let s = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
    Buffer.add_string expected s;
    Ring.add_string r s;
    let take = Random.State.int rng (Ring.length r + 1) in
    Buffer.add_subbytes consumed (Ring.buf r) (Ring.pos r) take;
    Ring.consume r take
  done;
  Buffer.add_subbytes consumed (Ring.buf r) (Ring.pos r) (Ring.length r);
  Ring.consume r (Ring.length r);
  Alcotest.(check bool) "drained" true (Ring.is_empty r);
  Alcotest.(check string) "FIFO order preserved" (Buffer.contents expected)
    (Buffer.contents consumed)

let test_ring_alloc_contiguity () =
  let r = Ring.create ~capacity:4 () in
  Ring.add_string r "abc";
  Ring.consume r 2;
  (* Forces compaction or growth; the readable region must stay one
     contiguous slice with the allocated tail right after it. *)
  let off = Ring.alloc r 5 in
  Bytes.blit_string "defgh" 0 (Ring.buf r) off 5;
  Alcotest.(check int) "length" 6 (Ring.length r);
  Alcotest.(check string) "contiguous readable slice" "cdefgh"
    (Bytes.sub_string (Ring.buf r) (Ring.pos r) (Ring.length r))

let test_ring_consume_guard () =
  let r = Ring.create () in
  Ring.add_string r "xy";
  Alcotest.check_raises "over-consume rejected"
    (Invalid_argument "Ring.consume: out of range") (fun () -> Ring.consume r 3)

(* ------------------------------------------------------------------ *)
(* Frame                                                               *)
(* ------------------------------------------------------------------ *)

let test_frame_header_roundtrip () =
  let r = Ring.create () in
  Frame.put_ok_id r ~first_id:123456789012 ~count:65536;
  let b = Ring.buf r and p = Ring.pos r in
  (match Frame.parse_header b p with
  | Ok (op, len) ->
      Alcotest.(check int) "opcode" Frame.op_ok_id op;
      Alcotest.(check int) "payload length" 12 len
  | Error e -> Alcotest.failf "header rejected: %s" e);
  Alcotest.(check int) "first id" 123456789012 (Frame.get_u64 b (p + Frame.header_size));
  Alcotest.(check int) "count" 65536 (Frame.get_u32 b (p + Frame.header_size + 8))

let test_frame_header_reserved () =
  let r = Ring.create () in
  Frame.put_empty r ~op:Frame.op_stats;
  let b = Ring.buf r and p = Ring.pos r in
  Bytes.set b (p + 2) '\x01';
  match Frame.parse_header b p with
  | Ok _ -> Alcotest.fail "nonzero reserved byte accepted"
  | Error _ -> ()

let test_frame_stats_bitexact () =
  let s : Live.stats =
    {
      submitted = 1_000_003;
      completed = 999_999;
      alive = 3;
      pending = 1;
      now = Float.pi *. 1e7;
      events = 2_000_000;
      makespan = 0x1.fffffffffffffp-3;
      max_alive = 4096;
      mean_flow = 1. /. 3.;
      max_flow = 1e308;
      power_sum = 2.2250738585072014e-308;
      norm = sqrt 2.;
      p50 = -0.0;
      p90 = 1.0000000000000002;
      p99 = 12345.6789;
    }
  in
  let r = Ring.create () in
  Frame.put_stats r s;
  Alcotest.(check int) "frame size" (Frame.header_size + Frame.stats_size) (Ring.length r);
  let decoded = Frame.stats_of_payload (Ring.buf r) (Ring.pos r + Frame.header_size) in
  check_stats_equal "stats wire roundtrip" s decoded

let test_frame_f64_bitexact () =
  let r = Ring.create () in
  List.iter
    (fun x -> Frame.put_advance r x)
    [ 0.; -0.; Float.min_float; Float.max_float; Float.pi; 1e-300; infinity ];
  let b = Ring.buf r and p = ref (Ring.pos r) in
  List.iter
    (fun x ->
      let got = Frame.get_f64 b (!p + Frame.header_size) in
      Alcotest.(check int64)
        (Printf.sprintf "f64 %h bits" x)
        (bits x) (bits got);
      p := !p + Frame.header_size + 8)
    [ 0.; -0.; Float.min_float; Float.max_float; Float.pi; 1e-300; infinity ]

(* ------------------------------------------------------------------ *)
(* Session: CRLF regression                                            *)
(* ------------------------------------------------------------------ *)

let test_session_crlf () =
  let engine = ref (Live.create (Live.Classified Rr_engine.Policy_class.Equal_share)) in
  (match Session.handle engine "SUBMIT 0 1\r" with
  | Session.Reply r -> Alcotest.(check string) "CR-terminated SUBMIT" "OK 0" r
  | _ -> Alcotest.fail "CR-terminated SUBMIT not answered");
  (match Session.handle engine "SUBMIT\t1\t2\r" with
  | Session.Reply r -> Alcotest.(check string) "tabs as separators" "OK 1" r
  | _ -> Alcotest.fail "tab-separated SUBMIT not answered");
  (match Session.handle engine "\r" with
  | Session.Silent -> ()
  | _ -> Alcotest.fail "bare CR line should be silent");
  match Session.handle engine "QUIT\r" with
  | Session.Quit -> ()
  | _ -> Alcotest.fail "CR-terminated QUIT not recognized"

(* ------------------------------------------------------------------ *)
(* Live.submit_batch                                                   *)
(* ------------------------------------------------------------------ *)

let test_submit_batch_differential () =
  let n = 2000 in
  let arrivals, sizes = workload ~seed:7 ~n in
  let one = Live.create ~k:3 (Live.Classified Rr_engine.Policy_class.Equal_share) in
  let batch = Live.create ~k:3 (Live.Classified Rr_engine.Policy_class.Equal_share) in
  let chunk = 97 in
  let i = ref 0 in
  while !i < n do
    let len = min chunk (n - !i) in
    for j = !i to !i + len - 1 do
      let id = Live.submit one ~arrival:arrivals.(j) ~size:sizes.(j) in
      Alcotest.(check int) "one-by-one id" j id
    done;
    let first = Live.submit_batch batch ~arrivals ~sizes ~off:!i ~len () in
    Alcotest.(check int) "batch first id" !i first;
    let h = arrivals.(!i + len - 1) in
    Live.advance one h;
    Live.advance batch h;
    i := !i + len
  done;
  Live.drain one;
  Live.drain batch;
  check_stats_equal "submit_batch vs repeated submit" (Live.query one) (Live.query batch)

let test_submit_batch_atomic () =
  let t = Live.create (Live.Classified Rr_engine.Policy_class.Equal_share) in
  ignore (Live.submit t ~arrival:0. ~size:1. : int);
  let before = Live.query t in
  (* Decreasing arrival in the middle of the slice: the whole batch must
     be rejected with nothing queued. *)
  let arrivals = [| 1.; 2.; 1.5; 3. |] and sizes = [| 1.; 1.; 1.; 1. |] in
  (match Live.submit_batch t ~arrivals ~sizes () with
  | _ -> Alcotest.fail "invalid batch accepted"
  | exception Invalid_argument _ -> ());
  check_stats_equal "engine untouched after rejected batch" before (Live.query t);
  (* Ids continue densely: the rejected batch consumed none. *)
  Alcotest.(check int) "next id unchanged" 1 (Live.submit t ~arrival:1. ~size:1.)

let test_submit_batch_slice () =
  let t = Live.create (Live.Classified Rr_engine.Policy_class.Equal_share) in
  let arrivals = [| 99.; 1.; 2.; 99. |] and sizes = [| 0.; 5.; 6.; 0. |] in
  let first = Live.submit_batch t ~arrivals ~sizes ~off:1 ~len:2 () in
  Alcotest.(check int) "slice first id" 0 first;
  Alcotest.(check int) "slice submitted" 2 (Live.query t).Live.submitted;
  Alcotest.(check int) "empty batch returns next id"
    2
    (Live.submit_batch t ~arrivals ~sizes ~off:0 ~len:0 ());
  Alcotest.check_raises "bad slice"
    (Invalid_argument "Live.submit_batch: off/len out of bounds") (fun () ->
      ignore (Live.submit_batch t ~arrivals ~sizes ~off:3 ~len:2 () : int))

(* ------------------------------------------------------------------ *)
(* Binary server end-to-end                                            *)
(* ------------------------------------------------------------------ *)

(* The tentpole acceptance: a socket-fed run and an in-process run of
   the same feed produce bit-identical STATS. *)
let test_binary_matches_inprocess () =
  with_server ~proto:Server.Binary (fun path ->
      let n = 1500 in
      let arrivals, sizes = workload ~seed:11 ~n in
      let c = Client.connect path in
      let local = Live.create (Live.Classified Rr_engine.Policy_class.Equal_share) in
      let chunk = 256 in
      let i = ref 0 in
      while !i < n do
        let len = min chunk (n - !i) in
        let first_wire = Client.submit_batch c ~arrivals ~sizes ~off:!i ~len () in
        let first_local = Live.submit_batch local ~arrivals ~sizes ~off:!i ~len () in
        Alcotest.(check int) "ids agree" first_local first_wire;
        let h = arrivals.(!i + len - 1) in
        ignore (Client.advance c h : float * int * int);
        Live.advance local h;
        i := !i + len
      done;
      ignore (Client.drain c : float * int * int);
      Live.drain local;
      check_stats_equal "socket-fed vs in-process" (Live.query local) (Client.stats c);
      Client.shutdown c)

let test_binary_err_keeps_connection () =
  with_server ~proto:Server.Binary (fun path ->
      let c = Client.connect path in
      Alcotest.(check int) "first submit" 0 (Client.submit c ~arrival:5. ~size:1.);
      (* Engine fault: decreasing arrival answers ERR, connection lives. *)
      (match Client.submit c ~arrival:3. ~size:1. with
      | _ -> Alcotest.fail "decreasing arrival accepted"
      | exception Client.Server_error _ -> ());
      Alcotest.(check int) "connection still usable" 1 (Client.submit c ~arrival:6. ~size:1.);
      let s = Client.stats c in
      Alcotest.(check int) "only valid submits counted" 2 s.Live.submitted;
      Client.shutdown c)

let test_binary_snapshot_restore_across_servers () =
  with_server ~proto:Server.Binary (fun path1 ->
      with_server ~proto:Server.Binary (fun path2 ->
          let c1 = Client.connect path1 in
          let arrivals, sizes = workload ~seed:13 ~n:400 in
          ignore (Client.submit_batch c1 ~arrivals ~sizes () : int);
          ignore (Client.advance c1 arrivals.(199) : float * int * int);
          let snap = Client.snapshot c1 in
          let c2 = Client.connect path2 in
          Client.restore c2 snap;
          check_stats_equal "restored server matches source" (Client.stats c1)
            (Client.stats c2);
          (* Both continue independently to the same final state. *)
          ignore (Client.drain c1 : float * int * int);
          ignore (Client.drain c2 : float * int * int);
          check_stats_equal "drained restored server matches" (Client.stats c1)
            (Client.stats c2);
          Client.shutdown c2;
          Client.shutdown c1))

(* The engine's pending ring over the wire: BATCH frames whose ADVANCEs
   lag behind wrap the ring and grow it while wrapped, with the pending
   count exact after every frame; a SNAPSHOT of the wrapped ring
   RESTOREd into a fresh server then finishes exactly as an in-process
   run of the same feed. *)
let test_binary_wrapped_ring_snapshot () =
  with_server ~proto:Server.Binary (fun path1 ->
      with_server ~proto:Server.Binary (fun path2 ->
          let arrivals, sizes = workload ~seed:17 ~n:300 in
          let local = Live.create (Live.Classified Rr_engine.Policy_class.Equal_share) in
          let c1 = Client.connect path1 in
          let batch c ~first ~len =
            let id = Client.submit_batch c ~arrivals ~sizes ~off:first ~len () in
            Alcotest.(check int)
              "ids agree"
              (Live.submit_batch local ~arrivals ~sizes ~off:first ~len ())
              id
          in
          (* Batches of [len] leaving [lag] jobs pending: the second wraps
             the ring's 16 slots, the third grows it mid-wrap, the fourth
             wraps it again. *)
          let first =
            List.fold_left
              (fun first (len, lag) ->
                batch c1 ~first ~len;
                let submitted = first + len in
                let h = (arrivals.(submitted - lag - 1) +. arrivals.(submitted - lag)) /. 2. in
                ignore (Client.advance c1 h : float * int * int);
                Live.advance local h;
                Alcotest.(check int) "pending exact" lag (Client.stats c1).Live.pending;
                submitted)
              0
              [ (10, 2); (12, 10); (20, 25) ]
          in
          batch c1 ~first ~len:5;
          let c2 = Client.connect path2 in
          Client.restore c2 (Client.snapshot c1);
          check_stats_equal "restored wrapped ring" (Live.query local) (Client.stats c2);
          batch c2 ~first:(first + 5) ~len:(300 - first - 5);
          ignore (Client.drain c2 : float * int * int);
          Live.drain local;
          check_stats_equal "restored server finishes as in-process" (Live.query local)
            (Client.stats c2);
          Client.shutdown c2;
          Client.shutdown c1))

let test_binary_midbatch_disconnect () =
  with_server ~proto:Server.Binary (fun path ->
      let victim = Client.connect path in
      let survivor = Client.connect path in
      Alcotest.(check int) "survivor submits" 0 (Client.submit survivor ~arrival:0. ~size:1.);
      (* The victim announces a 1000-job BATCH but hangs up 12 bytes in:
         the server must discard the partial frame without touching the
         engine or the survivor's session. *)
      let partial = Bytes.create (Frame.header_size + 12) in
      Bytes.set partial 0 (Char.chr Frame.op_batch);
      Bytes.set partial 1 '\x00';
      Bytes.set partial 2 '\x00';
      Bytes.set partial 3 '\x00';
      Bytes.set_int32_le partial 4 (Int32.of_int (4 + (1000 * 16)));
      Bytes.set_int32_le partial Frame.header_size 1000l;
      Client.send_raw victim partial;
      Client.close victim;
      (* The survivor keeps a working session on an uncorrupted engine. *)
      Alcotest.(check int) "survivor still works" 1
        (Client.submit survivor ~arrival:1. ~size:1.);
      let s = Client.stats survivor in
      Alcotest.(check int) "no phantom jobs from the dead batch" 2 s.Live.submitted;
      ignore (Client.drain survivor : float * int * int);
      Alcotest.(check int) "both jobs complete" 2 (Client.stats survivor).Live.completed;
      Client.shutdown survivor)

let test_binary_rude_hangup () =
  with_server ~proto:Server.Binary (fun path ->
      let survivor = Client.connect path in
      Alcotest.(check int) "survivor submits" 0 (Client.submit survivor ~arrival:0. ~size:1.);
      (* The victim sends one SUBMIT, waits until its OK_ID is readable,
         and closes without reading it.  Closing a Unix socket with
         unread bytes resets the peer: the server's next read of the
         victim fails with ECONNRESET, which must kill only the victim. *)
      let fd = connect_raw path in
      ignore (Unix.write fd (Bytes.of_string Frame.hello) 0 Frame.hello_len : int);
      ignore (read_exactly fd Frame.hello_len : bytes);
      let req = Ring.create () in
      Frame.put_submit req ~arrival:0.5 ~size:1.;
      ignore (Unix.write fd (Ring.buf req) (Ring.pos req) (Ring.length req) : int);
      (match Unix.select [ fd ] [] [] 5. with
      | [], _, _ -> Alcotest.fail "the victim's OK_ID never arrived"
      | _ -> ());
      Unix.close fd;
      let s = Client.stats survivor in
      Alcotest.(check int) "daemon alive, victim's job counted" 2 s.Live.submitted;
      Client.shutdown survivor)

let test_binary_bad_hello_closed () =
  with_server ~proto:Server.Binary (fun path ->
      let fd = connect_raw path in
      let garbage = Bytes.of_string "XXXXXXXX" in
      ignore (Unix.write fd garbage 0 8 : int);
      (* The server answers one ERR frame and closes. *)
      let seen = drain_to_eof fd in
      Alcotest.(check bool) "got an ERR frame" true (String.length seen >= Frame.header_size);
      Alcotest.(check int) "ERR opcode" Frame.op_err (Char.code seen.[0]);
      Unix.close fd;
      (* The daemon itself is unharmed. *)
      let c = Client.connect path in
      Alcotest.(check int) "server still serving" 0 (Client.submit c ~arrival:0. ~size:1.);
      Client.shutdown c)

let test_binary_shed_nonreading_client () =
  let config = { Server.default_config with max_pending = 64 } in
  with_server ~config ~proto:Server.Binary (fun path ->
      let fd = connect_raw path in
      ignore (Unix.write fd (Bytes.of_string Frame.hello) 0 Frame.hello_len : int);
      ignore (read_exactly fd Frame.hello_len : bytes);
      (* 1000 STATS requests in one burst without reading a single
         reply: 128 KB of pending replies blows the 64-byte threshold
         and the connection is shed. *)
      let burst = Bytes.create (1000 * Frame.header_size) in
      for i = 0 to 999 do
        Bytes.fill burst (i * Frame.header_size) Frame.header_size '\x00';
        Bytes.set burst (i * Frame.header_size) (Char.chr Frame.op_stats);
        Bytes.set_int32_le burst ((i * Frame.header_size) + 4) 0l
      done;
      ignore (Unix.write fd burst 0 (Bytes.length burst) : int);
      ignore (drain_to_eof fd : string);
      Unix.close fd;
      (* Shedding one hog leaves the daemon serving. *)
      let c = Client.connect path in
      Alcotest.(check int) "server alive after shed" 0 (Client.submit c ~arrival:0. ~size:1.);
      Client.shutdown c)

(* ------------------------------------------------------------------ *)
(* Text over the socket                                                *)
(* ------------------------------------------------------------------ *)

let test_text_crlf_over_socket () =
  with_server ~proto:Server.Text (fun path ->
      let fd = connect_raw path in
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      output_string oc "SUBMIT 0 1\r\nSTATS\r\n";
      flush oc;
      Alcotest.(check (option string)) "CRLF SUBMIT answered" (Some "OK 0")
        (In_channel.input_line ic);
      (match In_channel.input_line ic with
      | Some line ->
          Alcotest.(check bool) "CRLF STATS answered" true
            (String.length line >= 2 && String.sub line 0 2 = "OK")
      | None -> Alcotest.fail "no STATS reply");
      output_string oc "QUIT\r\n";
      flush oc;
      Alcotest.(check (option string)) "CRLF QUIT answered" (Some "OK bye")
        (In_channel.input_line ic);
      Unix.close fd)

let test_text_err_busy () =
  with_server ~proto:Server.Text (fun path ->
      let fd1 = connect_raw path in
      let ic1 = Unix.in_channel_of_descr fd1 and oc1 = Unix.out_channel_of_descr fd1 in
      output_string oc1 "SUBMIT 0 1\n";
      flush oc1;
      Alcotest.(check (option string)) "first client served" (Some "OK 0")
        (In_channel.input_line ic1);
      (* A second text client is told why it is turned away. *)
      let fd2 = connect_raw path in
      let seen = drain_to_eof fd2 in
      Alcotest.(check string) "second client refused explicitly" "ERR busy\n" seen;
      Unix.close fd2;
      (* The first session is undisturbed, and once it leaves the seat
         frees up for the next client. *)
      output_string oc1 "STATS\n";
      flush oc1;
      (match In_channel.input_line ic1 with
      | Some line -> Alcotest.(check bool) "first client undisturbed" true
            (String.length line >= 2 && String.sub line 0 2 = "OK")
      | None -> Alcotest.fail "first client lost its session");
      Unix.close fd1;
      Unix.sleepf 0.05;
      let fd3 = connect_raw path in
      let ic3 = Unix.in_channel_of_descr fd3 and oc3 = Unix.out_channel_of_descr fd3 in
      output_string oc3 "STATS\n";
      flush oc3;
      (match In_channel.input_line ic3 with
      | Some line ->
          Alcotest.(check bool) "seat freed for the next client" true
            (String.length line >= 2 && String.sub line 0 2 = "OK")
      | None -> Alcotest.fail "next client not served");
      output_string oc3 "QUIT\n";
      flush oc3;
      ignore (In_channel.input_line ic3 : string option);
      Unix.close fd3)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [
      ( "ring",
        [
          Alcotest.test_case "fifo across compaction and growth" `Quick test_ring_fifo;
          Alcotest.test_case "alloc keeps readable slice contiguous" `Quick
            test_ring_alloc_contiguity;
          Alcotest.test_case "over-consume rejected" `Quick test_ring_consume_guard;
        ] );
      ( "frame",
        [
          Alcotest.test_case "header roundtrip" `Quick test_frame_header_roundtrip;
          Alcotest.test_case "nonzero reserved byte rejected" `Quick
            test_frame_header_reserved;
          Alcotest.test_case "stats payload bit-exact" `Quick test_frame_stats_bitexact;
          Alcotest.test_case "f64 fields bit-exact" `Quick test_frame_f64_bitexact;
        ] );
      ( "session",
        [ Alcotest.test_case "CRLF and tabs accepted" `Quick test_session_crlf ] );
      ( "submit_batch",
        [
          Alcotest.test_case "bit-identical to repeated submit" `Quick
            test_submit_batch_differential;
          Alcotest.test_case "rejected batch leaves engine untouched" `Quick
            test_submit_batch_atomic;
          Alcotest.test_case "slices and empty batches" `Quick test_submit_batch_slice;
        ] );
      ( "binary server",
        [
          Alcotest.test_case "socket-fed run matches in-process bit-for-bit" `Quick
            test_binary_matches_inprocess;
          Alcotest.test_case "engine fault answers ERR, connection lives" `Quick
            test_binary_err_keeps_connection;
          Alcotest.test_case "snapshot/restore across servers" `Quick
            test_binary_snapshot_restore_across_servers;
          Alcotest.test_case "wrapped pending ring, snapshot and restore" `Quick
            test_binary_wrapped_ring_snapshot;
          Alcotest.test_case "mid-batch disconnect leaves others intact" `Quick
            test_binary_midbatch_disconnect;
          Alcotest.test_case "rude hangup with replies unread leaves others intact" `Quick
            test_binary_rude_hangup;
          Alcotest.test_case "bad hello closes only that connection" `Quick
            test_binary_bad_hello_closed;
          Alcotest.test_case "non-reading client is shed" `Quick
            test_binary_shed_nonreading_client;
        ] );
      ( "text server",
        [
          Alcotest.test_case "CRLF clients (telnet/netcat) work" `Quick
            test_text_crlf_over_socket;
          Alcotest.test_case "second client answered ERR busy" `Quick test_text_err_busy;
        ] );
    ]
