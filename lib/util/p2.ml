(* Jain & Chlamtac's P² sketch over one flat float store.  See p2.mli.

   Every value that is read must go through the same float operations,
   in the same order, as the textbook loops over five-element arrays
   (test/fold_oracle.ml keeps them): that is what keeps the estimates
   bit-identical. *)

type t = {
  s : float array;
  p : float;
  mutable count : int;
}

(* Slots of [s]: marker heights q_i and actual positions pos_i for i in
   0..4; desired positions np_i and their increments dnp_i for the
   interior markers only (i in 1..3), as the extreme ones are never
   read. *)
let[@inline] q i = i
let[@inline] pos i = 5 + i
let[@inline] np i = 9 + i
let[@inline] dnp i = 12 + i
let slots = 16

let[@inline] get (s : float array) i = Array.unsafe_get s i
let[@inline] set (s : float array) i x = Array.unsafe_set s i x

let create ~p () =
  if not (p > 0. && p < 1.) then invalid_arg "P2.create: p must be in (0, 1)";
  let s = Array.make slots 0. in
  for i = 0 to 4 do
    set s (pos i) (Float.of_int (i + 1))
  done;
  set s (dnp 1) (p /. 2.);
  set s (dnp 2) p;
  set s (dnp 3) ((1. +. p) /. 2.);
  { s; p; count = 0 }

(* Move interior marker [i] one position towards its desired spot when
   it has drifted a full position away and the neighbour on that side
   leaves room: piecewise-parabolic prediction, or linear when the
   parabola leaves the neighbours' bracket. *)
let[@inline] adjust s i =
  let qi = get s (q i) and pi = get s (pos i) in
  let pprev = get s (pos (i - 1)) and pnext = get s (pos (i + 1)) in
  let d = get s (np i) -. pi in
  if (d >= 1. && pnext -. pi > 1.) || (d <= -1. && pprev -. pi < -1.) then begin
    let d = if d >= 0. then 1. else -1. in
    let qprev = get s (q (i - 1)) and qnext = get s (q (i + 1)) in
    let candidate =
      qi
      +. d
         /. (pnext -. pprev)
         *. (((pi -. pprev +. d) *. (qnext -. qi) /. (pnext -. pi))
            +. ((pnext -. pi -. d) *. (qi -. qprev) /. (pi -. pprev)))
    in
    let h =
      if qprev < candidate && candidate < qnext then candidate
      else if d > 0. then qi +. (d *. (qnext -. qi) /. (pnext -. pi))
      else qi +. (d *. (qprev -. qi) /. (pprev -. pi))
    in
    set s (q i) h;
    set s (pos i) (pi +. d)
  end

let[@inline] push t x =
  let s = t.s in
  t.count <- t.count + 1;
  if t.count <= 5 then begin
    s.(q (t.count - 1)) <- x;
    if t.count = 5 then begin
      let sorted = Array.sub s (q 0) 5 in
      Array.sort Float.compare sorted;
      Array.blit sorted 0 s (q 0) 5;
      for i = 1 to 3 do
        set s (np i) (1. +. (4. *. get s (dnp i)))
      done
    end
  end
  else begin
    (* Locate the cell and bump the extreme markers.  The markers stay
       sorted, so the interior count is the highest i with x >= q_i. *)
    let k =
      let q4 = get s (q 4) in
      if x < get s (q 0) then begin
        set s (q 0) x;
        0
      end
      else if x >= q4 then begin
        (* [Float.max q4 x], less the NaN cases [x >= q4] rules out. *)
        if x > q4 || ((not (Float.sign_bit x)) && Float.sign_bit q4) then set s (q 4) x;
        3
      end
      else
        Bool.to_int (x >= get s (q 1))
        + Bool.to_int (x >= get s (q 2))
        + Bool.to_int (x >= get s (q 3))
    in
    if k < 1 then set s (pos 1) (get s (pos 1) +. 1.);
    if k < 2 then set s (pos 2) (get s (pos 2) +. 1.);
    if k < 3 then set s (pos 3) (get s (pos 3) +. 1.);
    set s (pos 4) (get s (pos 4) +. 1.);
    set s (np 1) (get s (np 1) +. get s (dnp 1));
    set s (np 2) (get s (np 2) +. get s (dnp 2));
    set s (np 3) (get s (np 3) +. get s (dnp 3));
    (* Adjust the three interior markers, in order, towards their
       desired spots. *)
    adjust s 1;
    adjust s 2;
    adjust s 3
  end

let add t x = push t x

(* The observation is read out of [a] here, so a caller whose floats sit
   in a flat array hands none over boxed. *)
let add_at t (a : float array) i = push t (Array.unsafe_get a i)

let count t = t.count

let value t =
  let n = t.count in
  if n = 0 then 0.
  else if n <= 5 then begin
    (* Exact small-sample quantile, interpolated like Stats.percentile. *)
    let sorted = Array.sub t.s (q 0) n in
    Array.sort Float.compare sorted;
    let rank = t.p *. Float.of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. Float.of_int lo in
      ((1. -. frac) *. sorted.(lo)) +. (frac *. sorted.(hi))
    end
  end
  else get t.s (q 2)
