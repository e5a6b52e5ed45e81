(* The serving path, end to end: a forked daemon running
   [Rr_serve.Server.run] (the code behind [rr_cli serve]) on its own heap,
   driven by this single-threaded client process through
   [Rr_serve.Client].  Each rep gets a fresh daemon with an event budget
   sized to the rep, so reps are independent and a long run never trips
   the 10M-event default of [rr_cli serve]. *)

module Live = Rr_engine.Live
module Client = Rr_serve.Client
module Stream = Rr_workload.Instance.Stream
module Source = Rr_engine.Simulator.Source

let rr = Live.Classified Rr_engine.Policy_class.Equal_share

(* Poisson arrivals at load 0.9 with Exp(1) sizes on one machine: the
   feed of every wire workload and of the layer ladder. *)
let stream ~seed ~n =
  Stream.generate_load ~seed
    ~sizes:(Rr_workload.Distribution.Exponential { mean = 1. })
    ~load:0.9 ~machines:1 ~n ()

(* Jobs come off the stream's unboxed cursor into reusable batch arrays,
   so the client allocates nothing per job. *)
type feed = {
  fill : Source.cursor -> int;
  cur : Source.cursor;
  arrivals : float array;
  sizes : float array;
}

let feed s ~batch =
  {
    fill = Stream.start_raw s;
    cur = { Source.arrival = 0.; size = 0. };
    arrivals = Array.make batch 0.;
    sizes = Array.make batch 0.;
  }

let next_batch f =
  let rec go i =
    if i >= Array.length f.arrivals || f.fill f.cur < 0 then i
    else begin
      f.arrivals.(i) <- f.cur.arrival;
      f.sizes.(i) <- f.cur.size;
      go (i + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* The daemon child                                                    *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; path : string; gc_rd : Unix.file_descr }

type server_gc = { minor_words : float; major_collections : int }

let out_dir = "_benchmark"
let socket_seq = ref 0

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

let spawn ~max_events =
  ensure_out_dir ();
  incr socket_seq;
  let path = Printf.sprintf "%s/rr-%d-%d.sock" out_dir (Unix.getpid ()) !socket_seq in
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      (* Outlive no parent: if the benchmark is killed before it can send
         SHUTDOWN, the daemon notices its new parent within a second and
         exits.  The serving loop retries every call a signal interrupts. *)
      let parent = Unix.getppid () in
      Sys.set_signal Sys.sigalrm
        (Sys.Signal_handle (fun _ -> if Unix.getppid () <> parent then Unix._exit 2));
      ignore
        (Unix.setitimer Unix.ITIMER_REAL { it_interval = 1.; it_value = 1. }
          : Unix.interval_timer_status);
      let code =
        try
          let g0 = Gc.quick_stat () in
          let engine = ref (Live.create ~max_events rr) in
          ignore (Unix.write_substring wr "R" 0 1 : int);
          Rr_serve.Server.run ~proto:Rr_serve.Server.Binary ~engine ~path ();
          let g = Gc.quick_stat () in
          let msg =
            Printf.sprintf "%.17g %d\n" (g.minor_words -. g0.minor_words)
              (g.major_collections - g0.major_collections)
          in
          ignore (Unix.write_substring wr msg 0 (String.length msg) : int);
          0
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      Unix.close wr;
      { pid; path; gc_rd = rd }

let kill srv =
  (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] srv.pid : int * Unix.process_status) with Unix.Unix_error _ -> ());
  (try Unix.close srv.gc_rd with Unix.Unix_error _ -> ());
  try Sys.remove srv.path with Sys_error _ -> ()

(* Wait for the child's ready byte (written just before it binds), then
   probe the socket until the daemon accepts and open the protocol
   connection.  The parent sleeps between probes instead of spinning:
   parent and child often share a vCPU, and a spinning parent starves
   the child of a whole scheduler slice (set-up went from ~0.9 ms to
   ~4 ms).  The probe uses its own descriptor, closed on every attempt
   ([Client.connect ~retries:0] would keep a failed one). *)
let connect srv =
  let b = Bytes.create 1 in
  if Unix.read srv.gc_rd b 0 1 <> 1 then failwith "server child exited before binding";
  let deadline = Stat.now_ns () + 5_000_000_000 in
  let rec probe () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let up =
      match Unix.connect fd (Unix.ADDR_UNIX srv.path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) -> false
    in
    Unix.close fd;
    if not up then begin
      if Stat.now_ns () > deadline then failwith "server child never accepted";
      if fst (Unix.waitpid [ Unix.WNOHANG ] srv.pid) <> 0 then failwith "server child exited";
      Unix.sleepf 1e-4;
      probe ()
    end
  in
  Unix.sleepf 1e-4;
  probe ();
  Client.connect ~retries:0 srv.path

(* After SHUTDOWN: collect the child's GC counters and reap it. *)
let finish srv =
  let ic = Unix.in_channel_of_descr srv.gc_rd in
  let line = In_channel.input_line ic in
  close_in ic;
  let status = snd (Unix.waitpid [] srv.pid) in
  if status <> Unix.WEXITED 0 then failwith "server child did not exit cleanly";
  match Option.map (String.split_on_char ' ') line with
  | Some [ w; c ] -> { minor_words = float_of_string w; major_collections = int_of_string c }
  | _ -> failwith "server child sent no GC counters"

(* Run [f] against a fresh daemon; the child is killed and reaped if [f]
   raises, so no run leaves a process behind. *)
let with_server ~max_events f =
  let srv = spawn ~max_events in
  match f srv with
  | v -> v
  | exception e ->
      kill srv;
      raise e

(* ------------------------------------------------------------------ *)
(* One rep                                                             *)
(* ------------------------------------------------------------------ *)

type rep = {
  jobs : int;
  frames : int;  (** requests sent, all connections *)
  wall_s : float;  (** first request to final STATS reply *)
  setup_s : float;  (** full GC, fork and every connection's hello *)
  late_max_s : float;  (** open loop: worst send delay behind schedule *)
  final : Live.stats;  (** STATS over the socket after DRAIN *)
  batches : int;  (** BATCH frames, each followed by an ADVANCE *)
  server_before : Procfs.t;
  server_after : Procfs.t;
  server_gc : server_gc;
}

(* Latency samples, in seconds, per request kind. *)
type samples = {
  batch : Stat.Buf.t;
  advance : Stat.Buf.t;
  stats : Stat.Buf.t;
  round : Stat.Buf.t;  (** closed loop: BATCH sent to ADVANCE answered *)
  frame : Stat.Buf.t;  (** open loop: every frame, from its due time *)
}

let samples () =
  let b = Stat.Buf.create in
  { batch = b (); advance = b (); stats = b (); round = b (); frame = b () }

(* One request/reply exchange: a span, a latency sample measured from
   [due] (default: when it was sent), and a failure if it came back later
   than the limit. *)
let timed ?due name ~req buf f =
  let t0 = Stat.now_ns () in
  let v = f () in
  let t1 = Stat.now_ns () in
  Span.record name ~req ~start:t0 ~stop:t1;
  let dt = Float.of_int (t1 - Option.value due ~default:t0) *. 1e-9 in
  Stat.Buf.add buf dt;
  Outcome.attempt ();
  if dt > Outcome.late_limit_s then Outcome.fail "%s reply %.1f s after it was due" name dt;
  v

(* One daemon's life.  Set-up runs from a full major collection (every
   rep starts from a collected heap) through the fork to the hello on
   every connection; the timed window runs from the first request to the
   final STATS reply. *)
let session ~max_events ~observers run =
  let t_setup = Stat.now_ns () in
  Gc.full_major ();
  with_server ~max_events (fun srv ->
      let feeder = connect srv in
      let obs = Array.init observers (fun _ -> Client.connect ~retries:0 srv.path) in
      let setup_s = Stat.seconds_since t_setup in
      let before = Procfs.sample srv.pid in
      let t0 = Stat.now_ns () in
      let jobs, frames, batches, late_max_s = run feeder obs t0 in
      Outcome.attempt ();
      ignore (Client.drain feeder : float * int * int);
      Outcome.attempt ();
      let final = Client.stats feeder in
      let wall_s = Stat.seconds_since t0 in
      let after = Procfs.sample srv.pid in
      Array.iter Client.bye obs;
      Client.shutdown feeder;
      let server_gc = finish srv in
      {
        jobs;
        frames = frames + 2;
        wall_s;
        setup_s;
        late_max_s;
        final;
        batches;
        server_before = before;
        server_after = after;
        server_gc;
      })

let bulk_batch = 512
let bulk_poll_every = 16

(* Closed loop: BATCH(bulk_batch) then ADVANCE to the batch's last
   arrival, one STATS per [bulk_poll_every] rounds on each observer
   connection. *)
let bulk_rep ?(observers = 1) ~seed ~jobs (s : samples) =
  let batch = bulk_batch and poll_every = bulk_poll_every in
  let f = feed (stream ~seed ~n:jobs) ~batch in
  Span.with_ "wire.bulk_rep" (fun () ->
      session ~max_events:((4 * jobs) + 1024) ~observers (fun feeder obs _t0 ->
          let rounds = ref 0 and frames = ref 0 and sent = ref 0 in
          let continue = ref true in
          while !continue do
            let len = next_batch f in
            if len = 0 then continue := false
            else begin
              let req = !rounds and t_round = Stat.now_ns () in
              ignore
                (timed "Client.submit_batch" ~req s.batch (fun () ->
                     Client.submit_batch feeder ~arrivals:f.arrivals ~sizes:f.sizes ~len ())
                  : int);
              ignore
                (timed "Client.advance" ~req s.advance (fun () ->
                     Client.advance feeder f.arrivals.(len - 1))
                  : float * int * int);
              Stat.Buf.add s.round (Stat.seconds_since t_round);
              sent := !sent + len;
              frames := !frames + 2;
              incr rounds;
              if !rounds mod poll_every = 0 then
                Array.iter
                  (fun o ->
                    ignore
                      (timed "Client.stats" ~req s.stats (fun () -> Client.stats o) : Live.stats);
                    incr frames)
                  obs
            end
          done;
          (!sent, !frames, !rounds, 0.)))

let open_batch = 16

(* Open loop at [rate] frames/s: slot i is due at t0 + i/rate.  Every 4th
   slot is a STATS on one of the observers (alternating); the other slots
   alternate BATCH(16) and ADVANCE on the feeder.  Latency runs from each
   frame's due time, so a stall also delays the frames queued behind it.
   The client spins between slots: a sleep would overshoot the 25-100 us
   gaps by the kernel's timer slack. *)
let open_rep ~seed ~rate ~duration_s (s : samples) =
  let period = 1e9 /. rate in
  let max_jobs = int_of_float (rate *. duration_s *. Float.of_int open_batch /. 2.) + 64 in
  let f = feed (stream ~seed ~n:max_jobs) ~batch:open_batch in
  let horizon = int_of_float (duration_s *. 1e9) in
  Span.with_ "wire.open_rep" (fun () ->
      session ~max_events:((4 * max_jobs) + 1024) ~observers:2 (fun feeder obs t0 ->
          let i = ref 0 and fed = ref 0 and sent = ref 0 and late = ref 0 in
          let continue = ref true in
          while !continue do
            let offset = int_of_float (Float.of_int !i *. period) in
            let stats_slot = !i mod 4 = 3 in
            if offset >= horizon && (not stats_slot) && !fed mod 2 = 0 then continue := false
            else begin
              let due = t0 + offset in
              while Stat.now_ns () < due do
                ()
              done;
              late := max !late (Stat.now_ns () - due);
              let req = !i in
              (if stats_slot then
                 ignore
                   (timed ~due "Client.stats" ~req s.frame (fun () ->
                        Client.stats obs.(!i / 4 mod 2))
                     : Live.stats)
               else if !fed mod 2 = 0 then begin
                 let len = next_batch f in
                 ignore
                   (timed ~due "Client.submit_batch" ~req s.frame (fun () ->
                        Client.submit_batch feeder ~arrivals:f.arrivals ~sizes:f.sizes ~len ())
                     : int);
                 sent := !sent + len;
                 incr fed
               end
               else begin
                 ignore
                   (timed ~due "Client.advance" ~req s.frame (fun () ->
                        Client.advance feeder f.arrivals.(open_batch - 1))
                     : float * int * int);
                 incr fed
               end);
              incr i
            end
          done;
          (!sent, !i, !fed / 2, Float.of_int !late *. 1e-9)))

(* ------------------------------------------------------------------ *)
(* Correctness: the same frames, replayed in process                   *)
(* ------------------------------------------------------------------ *)

(* Replay [batches] BATCH+ADVANCE rounds of [batch] jobs from the same
   stream into an in-process engine, then DRAIN: the socket-fed engine
   must land on bit-identical STATS (observer STATS never change state). *)
let replay ~seed ~n ~batch ~batches =
  let f = feed (stream ~seed ~n) ~batch in
  let live = Live.create rr in
  let rec go k =
    if k < batches then begin
      let len = next_batch f in
      if len > 0 then begin
        ignore (Live.submit_batch live ~arrivals:f.arrivals ~sizes:f.sizes ~len () : int);
        Live.advance live f.arrivals.(len - 1);
        go (k + 1)
      end
    end
  in
  go 0;
  Live.drain live;
  Live.query live

let stats_identical (a : Live.stats) (b : Live.stats) =
  let fe x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  a.submitted = b.submitted && a.completed = b.completed && a.alive = b.alive
  && a.pending = b.pending && a.events = b.events && a.max_alive = b.max_alive && fe a.now b.now
  && fe a.makespan b.makespan && fe a.mean_flow b.mean_flow && fe a.max_flow b.max_flow
  && fe a.power_sum b.power_sum && fe a.norm b.norm && fe a.p50 b.p50 && fe a.p90 b.p90
  && fe a.p99 b.p99

let check_rep ~what ~seed ~n ~batch (r : rep) =
  let local = replay ~seed ~n ~batch ~batches:r.batches in
  Outcome.check
    (stats_identical r.final local && r.final.completed = r.jobs)
    "%s: socket STATS differ from the in-process replay (completed %d vs %d, norm %.17g vs %.17g)"
    what r.final.completed local.completed r.final.norm local.norm
