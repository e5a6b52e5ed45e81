(* Feeding a live engine incrementally: the submit-while-running API.

   A closed simulation (Run.simulate) needs the whole arrival sequence up
   front.  Engine.Live instead accepts jobs while the clock moves — the
   shape of a real server.  This example drives Round Robin through one
   busy day: a Poisson trickle with a lunchtime burst, submitted in
   real-time order with the clock advanced to each arrival as it happens,
   and the O(1)-memory live metrics sampled every simulated "hour".

   Nothing is ever materialized: live memory is O(alive + pending), so the
   same loop handles a million-job feed in a constant-size heap (bench B6
   holds it above a million events per second).

   Run with: dune exec examples/live_feed.exe *)

module Live = Rr_engine.Live

let () =
  let live = Live.create ~machines:2 ~k:2 (Live.Classified Rr_engine.Policy_class.Equal_share) in
  let rng = Rr_util.Prng.create ~seed:42 in
  (* Poisson arrivals at load 0.85 on two machines; mean size 1. *)
  let rate t = if t >= 30. && t < 34. then 6.8 else 1.7 (* lunch burst: 4x *) in
  let next_arrival t =
    t +. (-.Float.log (1. -. Rr_util.Prng.float rng) /. rate t)
  in
  let horizon = 72. in
  let report t =
    let s = Live.query live in
    Printf.printf
      "t=%5.1f  alive=%3d  done=%5d  mean flow=%6.3f  p99=%7.3f  l2 norm=%8.3f\n" t
      s.Live.alive s.Live.completed s.Live.mean_flow s.Live.p99 s.Live.norm
  in
  let rec feed t next_report =
    if t < horizon then begin
      (* Catch up on reports that fall before this arrival, then admit it:
         exactly the SUBMIT/ADVANCE alternation of rr_cli serve. *)
      let next_report = ref next_report in
      while !next_report <= t do
        Live.advance live !next_report;
        report !next_report;
        next_report := !next_report +. 6.
      done;
      let size = -.Float.log (1. -. Rr_util.Prng.float rng) in
      ignore (Live.submit live ~arrival:t ~size:(Float.max 1e-3 size));
      Live.advance live t;
      feed (next_arrival t) !next_report
    end
  in
  feed (next_arrival 0.) 6.;
  (* Close the day: run the backlog dry and print the final account. *)
  Live.drain live;
  let s = Live.query live in
  Printf.printf
    "final: %d jobs in %d events, makespan %.2f, peak alive %d, mean flow %.3f, l2 norm %.3f\n"
    s.Live.completed s.Live.events s.Live.makespan s.Live.max_alive s.Live.mean_flow
    s.Live.norm
