(* How fast this machine is right now, against the reference box.

   The reference box is a 2-vCPU VM on a shared host.  Its co-tenants
   slow the code this benchmark runs by up to 1.6x, in phases that last
   from tens of seconds to minutes.  No statistic over one run removes a
   phase that covers the whole run, so every timed rep is bracketed by two
   readings of a reference loop, and the rep's times are scaled by the
   machine's speed around it:

     scaled time = measured time * speed,
     speed       = nominal reference time / measured reference time.

   The reference is this file's own code, which no change to the library
   can make faster or slower: a binary heap of floats under pseudo-random
   pushes and pops (branchy, no allocation) and a loop of short-lived
   boxed floats (the minor-heap allocation path), combined by their
   geometric mean.  The simulation kernels, the LP solver and the daemon
   slow down with it; a tight arithmetic loop and pointer chases through
   memory do not (see README.md).

   The nominal time is the reference's quiet-phase median on the
   reference box, so there a scaled time equals the measured one. *)

let heap_iters = 2_000_000
let boxed_iters = 4_000_000
let nominal_s = 0.0096

let heap n =
  let h = Array.make 64 0. and size = ref 0 and x = ref 12345 and sum = ref 0. in
  for _ = 1 to n do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    if !size < 60 then begin
      let v = Float.of_int (!x land 0xffff) in
      let i = ref !size in
      incr size;
      while !i > 0 && h.((!i - 1) / 2) > v do
        h.(!i) <- h.((!i - 1) / 2);
        i := (!i - 1) / 2
      done;
      h.(!i) <- v
    end
    else begin
      sum := !sum +. h.(0);
      decr size;
      let v = h.(!size) and i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= !size then sifting := false
        else
          let c = if l + 1 < !size && h.(l + 1) < h.(l) then l + 1 else l in
          if h.(c) < v then begin
            h.(!i) <- h.(c);
            i := c
          end
          else sifting := false
      done;
      h.(!i) <- v
    end
  done;
  !sum

let boxed n =
  let sum = ref 0. in
  for i = 1 to n do
    let r = Sys.opaque_identity (ref (Float.of_int i)) in
    sum := !sum +. !r
  done;
  !sum

let timed f n =
  let t0 = Stat.now_ns () in
  ignore (Sys.opaque_identity (f n) : float);
  Stat.seconds_since t0

(* The share of the full reference a reading runs: 1, or a hundredth in
   the smoke run, which makes no timing claims. *)
let share = ref 1.

(* One reading, about 25 ms on the reference box. *)
let read () =
  let iters n = max 1 (int_of_float (Float.of_int n *. !share)) in
  let h = timed heap (iters heap_iters) and b = timed boxed (iters boxed_iters) in
  nominal_s *. !share /. Float.sqrt (h *. b)
