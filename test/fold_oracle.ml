(* The metric folds as they stood before their state went flat, kept
   verbatim as the oracle of the bit-identity tests in test_util: the
   P² sketch over five-element arrays with out-of-line [parabolic] and
   [linear] steps, and Welford moments with an integer count. *)

module P2 = struct
  type t = {
    q : float array;  (* marker heights *)
    np : float array;  (* desired positions *)
    pos : float array;  (* actual positions (1-based) *)
    dnp : float array;  (* desired-position increments *)
    p : float;
    mutable count : int;
  }

  let create ~p () =
    if not (p > 0. && p < 1.) then invalid_arg "P2.create: p must be in (0, 1)";
    {
      q = Array.make 5 0.;
      np = Array.make 5 0.;
      pos = [| 1.; 2.; 3.; 4.; 5. |];
      dnp = [| 0.; p /. 2.; p; (1. +. p) /. 2.; 1. |];
      p;
      count = 0;
    }

  let parabolic t i d =
    let q = t.q and pos = t.pos in
    q.(i)
    +. d
       /. (pos.(i + 1) -. pos.(i - 1))
       *. (((pos.(i) -. pos.(i - 1) +. d) *. (q.(i + 1) -. q.(i)) /. (pos.(i + 1) -. pos.(i)))
          +. ((pos.(i + 1) -. pos.(i) -. d) *. (q.(i) -. q.(i - 1)) /. (pos.(i) -. pos.(i - 1)))
          )

  let linear t i d =
    let q = t.q and pos = t.pos in
    let j = i + int_of_float d in
    q.(i) +. (d *. (q.(j) -. q.(i)) /. (pos.(j) -. pos.(i)))

  let add t x =
    let q = t.q and np = t.np and pos = t.pos and dnp = t.dnp in
    t.count <- t.count + 1;
    if t.count <= 5 then begin
      q.(t.count - 1) <- x;
      if t.count = 5 then begin
        Array.sort Float.compare q;
        for i = 0 to 4 do
          np.(i) <- 1. +. (4. *. dnp.(i))
        done
      end
    end
    else begin
      (* Locate the cell and bump the extreme markers. *)
      let k =
        if x < q.(0) then begin
          q.(0) <- x;
          0
        end
        else if x >= q.(4) then begin
          q.(4) <- Float.max q.(4) x;
          3
        end
        else begin
          let k = ref 0 in
          for i = 1 to 3 do
            if x >= q.(i) then k := i
          done;
          !k
        end
      in
      for i = k + 1 to 4 do
        pos.(i) <- pos.(i) +. 1.
      done;
      for i = 0 to 4 do
        np.(i) <- np.(i) +. dnp.(i)
      done;
      (* Adjust the three interior markers towards their desired spots. *)
      for i = 1 to 3 do
        let d = np.(i) -. pos.(i) in
        if
          (d >= 1. && pos.(i + 1) -. pos.(i) > 1.)
          || (d <= -1. && pos.(i - 1) -. pos.(i) < -1.)
        then begin
          let d = if d >= 0. then 1. else -1. in
          let candidate = parabolic t i d in
          let h =
            if q.(i - 1) < candidate && candidate < q.(i + 1) then candidate else linear t i d
          in
          q.(i) <- h;
          pos.(i) <- pos.(i) +. d
        end
      done
    end

  let count t = t.count

  let value t =
    let n = t.count in
    if n = 0 then 0.
    else if n <= 5 then begin
      (* Exact small-sample quantile, interpolated like Stats.percentile. *)
      let sorted = Array.sub t.q 0 n in
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
    else t.q.(2)
end

module Welford = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0.; min = Float.infinity; max = Float.neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. Float.of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n

  let mean t = if t.n = 0 then 0. else t.mean

  let variance t = if t.n < 2 then 0. else t.m2 /. Float.of_int t.n

  let stddev t = sqrt (variance t)

  let min t = if t.n = 0 then invalid_arg "Welford.min: empty" else t.min

  let max t = if t.n = 0 then invalid_arg "Welford.max: empty" else t.max

  let of_array a =
    let t = create () in
    Array.iter (add t) a;
    t

  (* Chan et al.'s pairwise update: exact counts, means combined by
     weighted average, m2 corrected by the between-groups term. *)
  let copy t = { n = t.n; mean = t.mean; m2 = t.m2; min = t.min; max = t.max }

  let merge a b =
    if a.n = 0 then copy b
    else if b.n = 0 then copy a
    else begin
      let na = Float.of_int a.n and nb = Float.of_int b.n in
      let n = a.n + b.n in
      let delta = b.mean -. a.mean in
      {
        n;
        mean = a.mean +. (delta *. nb /. (na +. nb));
        m2 = a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. (na +. nb));
        min = Float.min a.min b.min;
        max = Float.max a.max b.max;
      }
    end
end
