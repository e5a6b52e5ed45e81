(* All-float, hence flat: [add] stores every field unboxed.  The count is
   kept as a float, exact up to 2^53, and equals [Float.of_int] of the
   integer count the update formulas divide by, so every value is
   unchanged. *)
type t = {
  mutable n : float;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () = { n = 0.; mean = 0.; m2 = 0.; min = Float.infinity; max = Float.neg_infinity }

let[@inline] add t x =
  t.n <- t.n +. 1.;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x

let count t = int_of_float t.n

let mean t = if t.n = 0. then 0. else t.mean

let variance t = if t.n < 2. then 0. else t.m2 /. t.n

let stddev t = sqrt (variance t)

let min t = if t.n = 0. then invalid_arg "Welford.min: empty" else t.min

let max t = if t.n = 0. then invalid_arg "Welford.max: empty" else t.max

let of_array a =
  let t = create () in
  Array.iter (add t) a;
  t

(* Chan et al.'s pairwise update: exact counts, means combined by
   weighted average, m2 corrected by the between-groups term. *)
let copy t = { n = t.n; mean = t.mean; m2 = t.m2; min = t.min; max = t.max }

let merge a b =
  if a.n = 0. then copy b
  else if b.n = 0. then copy a
  else begin
    let na = a.n and nb = b.n in
    let delta = b.mean -. a.mean in
    {
      n = na +. nb;
      mean = a.mean +. (delta *. nb /. (na +. nb));
      m2 = a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. (na +. nb));
      min = Float.min a.min b.min;
      max = Float.max a.max b.max;
    }
  end
