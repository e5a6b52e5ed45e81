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
  (match Session.handle ~files:true engine "SUBMIT 0 1\r" with
  | Session.Reply r -> Alcotest.(check string) "CR-terminated SUBMIT" "OK 0" r
  | _ -> Alcotest.fail "CR-terminated SUBMIT not answered");
  (match Session.handle ~files:true engine "SUBMIT\t1\t2\r" with
  | Session.Reply r -> Alcotest.(check string) "tabs as separators" "OK 1" r
  | _ -> Alcotest.fail "tab-separated SUBMIT not answered");
  (match Session.handle ~files:true engine "\r" with
  | Session.Silent -> ()
  | _ -> Alcotest.fail "bare CR line should be silent");
  match Session.handle ~files:true engine "QUIT\r" with
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

let test_text_snapshot_paths_refused () =
  let file = Filename.temp_file "rr-serve" ".snap" in
  Sys.remove file;
  with_server ~proto:Server.Text (fun path ->
      let fd = connect_raw path in
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      (* QUIT from this connection even when a check fails: it holds the
         one text seat, so nobody else could stop the server. *)
      Fun.protect ~finally:(fun () ->
          (try
             output_string oc "QUIT\n";
             flush oc
           with Sys_error _ -> ());
          Unix.close fd)
      @@ fun () ->
      Printf.fprintf oc "SUBMIT 0 1\nSNAPSHOT %s\nRESTORE %s\nSNAPSHOT\nSTATS\n" file file;
      flush oc;
      Alcotest.(check (option string)) "SUBMIT answered" (Some "OK 0") (In_channel.input_line ic);
      let refused verb =
        match In_channel.input_line ic with
        | Some line ->
            let prefix = "ERR " ^ verb in
            Alcotest.(check bool)
              (verb ^ " refused, pointing to the binary frame: " ^ line)
              true
              (String.starts_with ~prefix line
              && String.ends_with ~suffix:(Printf.sprintf "binary %s frame (--proto binary)" verb)
                   line)
        | None -> Alcotest.failf "no reply to %s" verb
      in
      refused "SNAPSHOT";
      refused "RESTORE";
      refused "SNAPSHOT";
      (match In_channel.input_line ic with
      | Some line ->
          Alcotest.(check bool) "session goes on" true (String.starts_with ~prefix:"OK submitted=1" line)
      | None -> Alcotest.fail "no STATS reply"));
  Alcotest.(check bool) "no file written through the socket" false (Sys.file_exists file);
  (* Stdio keeps the path form. *)
  let engine = ref (Live.create (Live.Classified Rr_engine.Policy_class.Equal_share)) in
  let ok line =
    match Session.handle ~files:true engine line with
    | Session.Reply r -> Alcotest.(check string) line "OK" r
    | _ -> Alcotest.failf "%s not answered" line
  in
  ok ("SNAPSHOT " ^ file);
  ok ("RESTORE " ^ file);
  Sys.remove file

(* ------------------------------------------------------------------ *)
(* Descriptors: running out, and numbers past select's FD_SETSIZE      *)
(* ------------------------------------------------------------------ *)

(* This test binary, re-executed with [daemon_env] set to MODE:PATH
   under a descriptor limit of its own, serves one binary socket at PATH
   until SHUTDOWN: running out of descriptors, or holding a thousand of
   them, takes a process of its own.  MODE says what the daemon holds
   before it starts serving (see [daemon_main]):
   - [plain]: nothing;
   - [high]: every free descriptor up to 1030, so the poller, the
     listener and every connection get numbers select(2) cannot watch;
   - [starved]: every free descriptor but the two the poller and the
     listener take, so there is none to spare; SIGUSR1 lets them go. *)
let daemon_env = "RR_SERVE_TEST_DAEMON"

(* The shell exits 77 when it cannot set the limit. *)
let spawn_daemon ~mode ~nofile path =
  Unix.create_process_env "/bin/sh"
    [|
      "/bin/sh";
      "-c";
      Printf.sprintf "ulimit -n %d || exit 77; exec \"$0\"" nofile;
      Sys.executable_name;
    |]
    (Array.append [| Printf.sprintf "%s=%s:%s" daemon_env mode path |] (Unix.environment ()))
    Unix.stdin Unix.stdout Unix.stderr

(* Run [f pid path] against a re-executed daemon once its socket is
   bound, then check that it exits 0 (the caller sends SHUTDOWN).  A
   daemon left running by a failed check is killed. *)
let with_daemon ~mode ~nofile f =
  let path = temp_sock () in
  let pid = spawn_daemon ~mode ~nofile path in
  let reaped = ref false in
  let reap flags =
    let r, status = Unix.waitpid flags pid in
    if r <> 0 then reaped := true;
    (r, status)
  in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (reap [] : int * Unix.process_status)
      end)
    (fun () ->
      let rec await tries =
        if not (Sys.file_exists path) then
          match reap [ Unix.WNOHANG ] with
          | 0, _ when tries > 0 ->
              Unix.sleepf 0.01;
              await (tries - 1)
          | 0, _ -> Alcotest.fail "daemon never bound its socket"
          | _, Unix.WEXITED 77 -> Alcotest.skip ()
          | _, _ -> Alcotest.fail "daemon exited before binding its socket"
      in
      await 1000;
      f pid path;
      let _, status = reap [] in
      Alcotest.(check bool) "daemon exits 0 on SHUTDOWN" true (status = Unix.WEXITED 0))

(* Open /dev/null until [enough] holds for the last descriptor or none
   is left; newest first. *)
let hold_descriptors enough =
  let rec go held =
    match Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | fd -> if enough fd then fd :: held else go (fd :: held)
    | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> held
  in
  go []

let daemon_main spec =
  let mode, path =
    match String.index_opt spec ':' with
    | Some i -> (String.sub spec 0 i, String.sub spec (i + 1) (String.length spec - i - 1))
    | None -> ("plain", spec)
  in
  (match mode with
  | "plain" -> ()
  | "high" -> (
      match hold_descriptors (fun fd -> Rr_serve.Poller.index fd >= 1030) with
      | fd :: _ when Rr_serve.Poller.index fd >= 1030 -> ()
      | _ -> exit 3)
  | "starved" -> (
      match hold_descriptors (fun _ -> false) with
      | a :: b :: rest ->
          Unix.close a;
          Unix.close b;
          let held = ref rest in
          Sys.set_signal Sys.sigusr1
            (Sys.Signal_handle
               (fun _ ->
                 List.iter Unix.close !held;
                 held := []))
      | _ -> exit 3)
  | _ -> exit 2);
  let engine = ref (Live.create (Live.Classified Rr_engine.Policy_class.Equal_share)) in
  Server.run ~proto:Server.Binary ~engine ~path ();
  exit 0

let hello_stats =
  let r = Ring.create () in
  Ring.add_string r Frame.hello;
  Frame.put_empty r ~op:Frame.op_stats;
  Bytes.sub (Ring.buf r) (Ring.pos r) (Ring.length r)

(* One greeted feeder, then 40 more connections on a daemon limited to
   24 descriptors: the newcomers past the limit are turned away busy,
   the feeder keeps its session, and freed descriptors take newcomers
   again. *)
let test_descriptor_exhaustion () =
  with_daemon ~mode:"plain" ~nofile:24 (fun _ path ->
      let feeder = Client.connect path in
      Alcotest.(check int) "feeder submits" 0 (Client.submit feeder ~arrival:0. ~size:1.);
      let extras = List.init 40 (fun _ -> connect_raw path) in
      (* A refused connection may be closed before its hello lands. *)
      List.iter
        (fun fd ->
          try ignore (Unix.write fd hello_stats 0 (Bytes.length hello_stats) : int)
          with Unix.Unix_error _ -> ())
        extras;
      let greeted = ref 0 and busy = ref 0 in
      List.iter
        (fun fd ->
          let reply = read_exactly fd (Frame.hello_len + Frame.header_size) in
          Alcotest.(check bool) "hello first" true (Frame.hello_matches reply 0);
          let op = Char.code (Bytes.get reply Frame.hello_len) in
          if op = Frame.op_ok_stats then incr greeted
          else if op = Frame.op_err then incr busy
          else Alcotest.failf "unexpected reply %s" (Frame.op_name op))
        extras;
      Alcotest.(check int) "every extra connection answered" 40 (!greeted + !busy);
      Alcotest.(check bool) "descriptors ran out" true (!busy > 0);
      Alcotest.(check int) "feeder still served" 1 (Client.submit feeder ~arrival:1. ~size:1.);
      List.iter Unix.close extras;
      (* The daemon reaps the closed extras on its own wake-ups. *)
      let rec newcomer tries =
        let c = Client.connect path in
        match Client.stats c with
        | s -> (c, s)
        | exception Client.Server_error _ when tries > 0 ->
            Client.close c;
            Unix.sleepf 0.01;
            newcomer (tries - 1)
      in
      let c, s = newcomer 200 in
      Alcotest.(check int) "newcomer served once descriptors free up" 2 s.Live.submitted;
      Client.shutdown c;
      Client.close feeder)

(* No descriptor to spare from the start and no connection open: the
   first accept fails, and the daemon stops listening.  When descriptors
   free up without any connection of its own closing (here SIGUSR1 makes
   the daemon let go of the ones it holds; ENFILE clears the same way
   when other processes close files), it must take newcomers again. *)
let test_descriptor_starvation () =
  with_daemon ~mode:"starved" ~nofile:32 (fun pid path ->
      let fd = connect_raw path in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      ignore (Unix.write fd hello_stats 0 (Bytes.length hello_stats) : int);
      (match Unix.select [ fd ] [] [] 0.3 with
      | [], _, _ -> ()
      | _ -> Alcotest.fail "answered or hung up with no descriptor to accept on");
      Unix.kill pid Sys.sigusr1;
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
      let reply =
        try read_exactly fd (Frame.hello_len + Frame.header_size)
        with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.fail "not served within 10 s once descriptors freed up"
      in
      Alcotest.(check bool) "hello first" true (Frame.hello_matches reply 0);
      Alcotest.(check string) "served, not turned away" (Frame.op_name Frame.op_ok_stats)
        (Frame.op_name (Char.code (Bytes.get reply Frame.hello_len)));
      let c = Client.connect path in
      Client.shutdown c)

(* Descriptors 3-1030 taken before the daemon starts.  The soft limit is
   raised to 2048 for the daemon (up to the hard limit); the test skips
   only when that fails. *)
let test_high_descriptors () =
  with_daemon ~mode:"high" ~nofile:2048 (fun _ path ->
      let n = 2000 in
      let arrivals, sizes = workload ~seed:19 ~n in
      let feeder = Client.connect path and observer = Client.connect path in
      let local = Live.create (Live.Classified Rr_engine.Policy_class.Equal_share) in
      let i = ref 0 in
      while !i < n do
        let len = min 100 (n - !i) in
        ignore (Client.submit_batch feeder ~arrivals ~sizes ~off:!i ~len () : int);
        ignore (Live.submit_batch local ~arrivals ~sizes ~off:!i ~len () : int);
        let h = arrivals.(!i + len - 1) in
        ignore (Client.advance feeder h : float * int * int);
        Live.advance local h;
        ignore (Client.stats observer : Live.stats);
        i := !i + len
      done;
      check_stats_equal "descriptors past 1023" (Live.query local) (Client.stats observer);
      Client.bye observer;
      Client.shutdown feeder)

(* ------------------------------------------------------------------ *)
(* Protocol fuzzing                                                    *)
(* ------------------------------------------------------------------ *)

(* Each property runs against one server; every case first RESTOREs a
   pristine engine over a harness connection, then checks that the
   harness's STATS equal an in-process replay of the frames the daemon
   accepted, byte for byte.  The server is joined at the end, so
   anything that escaped Server.run fails the property.

   The fuzzed bytes never carry a valid snapshot: a RESTORE payload with
   the right magic still reaches Marshal (ROADMAP's snapshot-codec
   item), and a crafted one can crash the daemon.  These cases pin the
   framing and the event loop, not the snapshot decoder. *)

let fuzz_config = { Server.default_config with max_frame_payload = 4096 }
let pristine = Live.to_bytes (Live.create (Live.Classified Rr_engine.Policy_class.Equal_share))

type req = Submit of float * float | Batch of (float * float) array | Advance of float | Stats | Drain

(* Arrivals are non-decreasing and horizons follow them, but a DRAIN can
   still push the clock past a later arrival: those answer ERR, which a
   replay must reproduce too. *)
let gen_reqs =
  QCheck2.Gen.(
    let item = quad (int_range 0 5) (float_range 0. 2.) (float_range 0.01 3.) (int_range 1 6) in
    map
      (fun items ->
        let t = ref 0. in
        let next gap =
          t := !t +. gap;
          !t
        in
        List.map
          (fun (kind, gap, size, k) ->
            match kind with
            | 0 | 1 -> Submit (next gap, size)
            | 2 -> Batch (Array.init k (fun i -> (next (gap /. Float.of_int (i + 1)), size)))
            | 3 -> Advance (next gap)
            | 4 -> Stats
            | _ -> Drain)
          items)
      (list_size (int_range 1 12) item))

let encode reqs =
  let r = Ring.create () in
  Ring.add_string r Frame.hello;
  List.iter
    (function
      | Submit (arrival, size) -> Frame.put_submit r ~arrival ~size
      | Batch js ->
          Frame.put_batch r ~arrivals:(Array.map fst js) ~sizes:(Array.map snd js) ~off:0
            ~len:(Array.length js)
      | Advance h -> Frame.put_advance r h
      | Stats -> Frame.put_empty r ~op:Frame.op_stats
      | Drain -> Frame.put_empty r ~op:Frame.op_drain)
    reqs;
  Bytes.sub (Ring.buf r) (Ring.pos r) (Ring.length r)

(* What the daemon does with the frame at [off] of one connection's
   bytes [b], per PROTOCOL.md: [`Next off'] after applying it to
   [engine], [`Partial] if [b] ends inside it, [`Closed] if it closes the
   connection, [`Stop] on SHUTDOWN. *)
let step engine b off =
  let n = Bytes.length b in
  if off + Frame.header_size > n then `Partial
  else
    match Frame.parse_header b off with
    | Error _ -> `Closed
    | Ok (_, plen) when plen > fuzz_config.max_frame_payload -> `Closed
    | Ok (_, plen) when off + Frame.header_size + plen > n -> `Partial
    | Ok (op, plen) ->
        let p = off + Frame.header_size in
        let apply f =
          (try f () with Invalid_argument _ | Failure _ -> ());
          `Next (p + plen)
        in
        let f64 i = Frame.get_f64 b (p + i) in
        if op = Frame.op_submit && plen = 16 then
          apply (fun () -> ignore (Live.submit !engine ~arrival:(f64 0) ~size:(f64 8) : int))
        else if op = Frame.op_batch && plen >= 4 then
          let count = Frame.get_u32 b p in
          if count < 1 || count > Frame.max_batch || plen <> 4 + (16 * count) then `Closed
          else
            apply (fun () ->
                let arrivals = Array.init count (fun i -> f64 (4 + (16 * i))) in
                let sizes = Array.init count (fun i -> f64 (12 + (16 * i))) in
                ignore (Live.submit_batch !engine ~arrivals ~sizes () : int))
        else if op = Frame.op_advance && plen = 8 then apply (fun () -> Live.advance !engine (f64 0))
        else if op = Frame.op_drain && plen = 0 then apply (fun () -> Live.drain !engine)
        else if (op = Frame.op_stats || op = Frame.op_snapshot) && plen = 0 then `Next (p + plen)
        else if op = Frame.op_restore then
          apply (fun () -> engine := Live.of_bytes (Bytes.sub b p plen))
        else if op = Frame.op_shutdown then `Stop
        else `Closed (* BYE, a malformed payload or an unknown opcode *)

(* Replay one connection's bytes; [`Stop] if they would stop the server. *)
let replay engine b =
  let rec go off = match step engine b off with `Next off -> go off | r -> r in
  if Bytes.length b < Frame.hello_len then `Partial
  else if Frame.hello_matches b 0 then go Frame.hello_len
  else `Closed

let fresh () = ref (Live.of_bytes pristine)

let stats_bytes (s : Live.stats) =
  let r = Ring.create () in
  Frame.put_stats r s;
  Bytes.sub_string (Ring.buf r) (Ring.pos r) (Ring.length r)

(* The daemon reads each connection on its own wake-up, so a hung-up
   connection's last frames may land after the harness asks: poll until
   the STATS settle on the replay's, for up to 2 s. *)
let expect_replay harness engine =
  let want = Live.query !engine in
  let deadline = Unix.gettimeofday () +. 2. in
  let rec go () =
    let got = Client.stats harness in
    if String.equal (stats_bytes got) (stats_bytes want) then true
    else if Unix.gettimeofday () > deadline then begin
      check_stats_equal "daemon vs replay" want got;
      false
    end
    else begin
      Unix.sleepf 0.001;
      go ()
    end
  in
  go ()

(* Writes that the daemon may refuse halfway (it closes a corrupt
   connection) stop quietly. *)
let send fd b off len =
  try
    ignore (Unix.write fd b off len : int);
    true
  with Unix.Unix_error _ -> false

let read_reply fd =
  let h = read_exactly fd Frame.header_size in
  match Frame.parse_header h 0 with
  | Error e -> Alcotest.failf "corrupt reply: %s" e
  | Ok (_, plen) -> Bytes.to_string h ^ Bytes.to_string (read_exactly fd plen)

let with_fuzz_server f =
  with_server ~config:fuzz_config ~proto:Server.Binary (fun path ->
      let harness = Client.connect path in
      Fun.protect ~finally:(fun () -> Client.close harness) (fun () -> f harness path))

(* A fixed-seed property whose cases all run against one fuzz server. *)
let fuzz ~seed ~count ~name gen prop =
  let server = ref None in
  let name, speed, run =
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |])
      (QCheck2.Test.make ~name ~count gen (fun case ->
           let harness, path = Option.get !server in
           prop harness path case))
  in
  ( name,
    speed,
    fun () ->
      with_fuzz_server (fun harness path ->
          server := Some (harness, path);
          run ()) )

(* Every split of a valid stream across two writes: the same replies,
   byte for byte, and the same engine. *)
let prop_split_points harness path reqs =
  let b = encode reqs and replies = 1 + List.length reqs in
  let exchange k =
    Client.restore harness pristine;
    let fd = connect_raw path in
    ignore (send fd b 0 k && send fd b k (Bytes.length b - k) : bool);
    let hello = Bytes.to_string (read_exactly fd Frame.hello_len) in
    let out = hello ^ String.concat "" (List.init (replies - 1) (fun _ -> read_reply fd)) in
    Unix.close fd;
    out
  in
  let whole = exchange (Bytes.length b) in
  let engine = fresh () in
  ignore (replay engine b);
  let ok = ref (expect_replay harness engine) in
  for k = 0 to Bytes.length b - 1 do
    let split = exchange k in
    if not (String.equal split whole) then begin
      ok := false;
      Alcotest.failf "split at byte %d changes the replies" k
    end;
    ok := !ok && expect_replay harness engine
  done;
  !ok

(* A hangup at every byte offset, replies unread: exactly the frames
   complete before the cut reach the engine. *)
let prop_hangups harness path reqs =
  let b = encode reqs in
  let ok = ref true in
  for k = 0 to Bytes.length b do
    Client.restore harness pristine;
    let fd = connect_raw path in
    ignore (send fd b 0 k : bool);
    Unix.close fd;
    let engine = fresh () in
    ignore (replay engine (Bytes.sub b 0 k));
    ok := !ok && expect_replay harness engine
  done;
  !ok

(* Byte flips, then a truncation, sent in random chunks and hung up on. *)
let gen_mutation =
  QCheck2.Gen.(
    quad gen_reqs
      (list_size (int_range 1 4) (pair (float_range 0. 1.) (int_range 1 255)))
      (float_range 0. 1.)
      (list_size (int_range 1 4) (float_range 0. 1.)))

let mutate (reqs, flips, cut, _) =
  let b = encode reqs in
  List.iter
    (fun (at, x) ->
      let i = Int.min (Bytes.length b - 1) (int_of_float (at *. Float.of_int (Bytes.length b))) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x)))
    flips;
  Bytes.sub b 0 (int_of_float (cut *. Float.of_int (Bytes.length b)))

let prop_mutations harness path ((_, _, _, chunks) as m) =
  let b = mutate m in
  let engine = fresh () in
  (* A flip that spells SHUTDOWN would end the shared server. *)
  QCheck2.assume (replay engine b <> `Stop);
  Client.restore harness pristine;
  let fd = connect_raw path in
  let n = Bytes.length b in
  let cuts = List.sort_uniq compare (List.map (fun c -> int_of_float (c *. Float.of_int n)) chunks) in
  ignore
    (List.fold_left
       (fun (off, alive) cut ->
         if alive && cut > off then (cut, send fd b off (cut - off)) else (off, alive))
       (0, true) (cuts @ [ n ])
      : int * bool);
  Unix.close fd;
  expect_replay harness engine

(* Two clients writing in random chunks; a client reads the reply of
   every frame its chunk completes before anyone writes again, so the
   daemon takes the frames in a known order. *)
let gen_interleaved =
  QCheck2.Gen.(
    triple gen_reqs (list_size (int_range 1 12) bool) (list_size (int_range 1 40) (pair bool (int_range 1 40))))

let prop_interleaved harness path (reqs, owners, schedule) =
  Client.restore harness pristine;
  let owner i = List.nth owners (i mod List.length owners) in
  let mine o = List.filteri (fun i _ -> owner i = o) reqs in
  let streams = [| encode (mine false); encode (mine true) |] in
  let fds = [| connect_raw path; connect_raw path |] in
  let sent = [| 0; 0 |] and parsed = [| 0; 0 |] in
  let engine = fresh () in
  let write c len =
    let b = streams.(c) in
    let len = Int.min len (Bytes.length b - sent.(c)) in
    ignore (send fds.(c) b sent.(c) len : bool);
    sent.(c) <- sent.(c) + len;
    (* Replay and await every frame this chunk completed. *)
    let rec settle () =
      if parsed.(c) = 0 then begin
        if sent.(c) >= Frame.hello_len then begin
          ignore (read_exactly fds.(c) Frame.hello_len : bytes);
          parsed.(c) <- Frame.hello_len;
          settle ()
        end
      end
      else
        match step engine (Bytes.sub b 0 sent.(c)) parsed.(c) with
        | `Next off ->
            ignore (read_reply fds.(c) : string);
            parsed.(c) <- off;
            settle ()
        | _ -> ()
    in
    settle ()
  in
  List.iter (fun (c, len) -> write (Bool.to_int c) len) schedule;
  write 0 max_int;
  write 1 max_int;
  Array.iter Unix.close fds;
  expect_replay harness engine

(* A header announcing more than max_frame_payload: ERR, then the
   connection closes before any payload is awaited. *)
let test_fuzz_oversized_header () =
  with_fuzz_server (fun harness path ->
      List.iter
        (fun op ->
          Client.restore harness pristine;
          let fd = connect_raw path in
          let h = Bytes.make Frame.header_size '\000' in
          Bytes.set h 0 (Char.chr op);
          Bytes.set_int32_le h 4 (Int32.of_int (fuzz_config.max_frame_payload + 1));
          ignore (send fd (Bytes.cat (Bytes.of_string Frame.hello) h) 0 (Frame.hello_len + 8) : bool);
          ignore (read_exactly fd Frame.hello_len : bytes);
          let reply = read_reply fd in
          Alcotest.(check int) (Frame.op_name op ^ ": ERR") Frame.op_err (Char.code reply.[0]);
          Alcotest.(check string)
            (Frame.op_name op ^ ": then closed") "" (drain_to_eof fd);
          Unix.close fd;
          Alcotest.(check bool) "engine untouched" true (expect_replay harness (fresh ())))
        [ Frame.op_submit; Frame.op_batch; Frame.op_restore; Frame.op_stats; 0x42 ])

let fuzz_cases =
  [
    fuzz ~seed:7 ~count:6 ~name:"every split point gives identical replies" gen_reqs
      prop_split_points;
    fuzz ~seed:11 ~count:6 ~name:"hangup at every byte offset" gen_reqs prop_hangups;
    fuzz ~seed:13 ~count:600 ~name:"byte flips and truncations" gen_mutation prop_mutations;
    fuzz ~seed:17 ~count:200 ~name:"two interleaved clients" gen_interleaved prop_interleaved;
    Alcotest.test_case "header over max_frame_payload" `Quick test_fuzz_oversized_header;
  ]

(* ------------------------------------------------------------------ *)

let () = Option.iter daemon_main (Sys.getenv_opt daemon_env)

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
          Alcotest.test_case "running out of descriptors keeps the daemon serving" `Quick
            test_descriptor_exhaustion;
          Alcotest.test_case "no descriptor to spare: accepts again once some free up" `Quick
            test_descriptor_starvation;
          Alcotest.test_case "descriptors past 1023" `Quick test_high_descriptors;
        ] );
      ("protocol fuzz", fuzz_cases);
      ( "text server",
        [
          Alcotest.test_case "CRLF clients (telnet/netcat) work" `Quick
            test_text_crlf_over_socket;
          Alcotest.test_case "second client answered ERR busy" `Quick test_text_err_busy;
          Alcotest.test_case "SNAPSHOT/RESTORE paths refused over a socket" `Quick
            test_text_snapshot_paths_refused;
        ] );
    ]
