let approx_equal ?(rtol = 1e-9) ?(atol = 1e-12) a b =
  Float.abs (a -. b) <= atol +. (rtol *. Float.max (Float.abs a) (Float.abs b))

(* [x ** k] by square-and-multiply: exponent bits from the most
   significant one, squaring per bit and multiplying by [x] per set bit —
   the association of the recursion [x^(2m) = (x^m)^2],
   [x^(2m+1) = x * x^(2m)], so small cases read [powi x 3 = x *. (x *.
   x)].  The loop sits inside the inlined function rather than in a
   helper it calls: at a join with a call's (boxed) result, every other
   branch would box its float too — two words per call on the lk-norm
   folds, which call [powi] once per completed job. *)
let[@inline] powi x k =
  assert (k >= 0);
  if k = 1 then x
  else if k = 2 then x *. x
  else if k = 3 then x *. (x *. x)
  else begin
    let top = ref 1 in
    while 2 * !top <= k do
      top := 2 * !top
    done;
    let r = ref 1. and bit = ref !top in
    while !bit > 0 do
      r := !r *. !r;
      if k land !bit <> 0 then r := x *. !r;
      bit := !bit lsr 1
    done;
    !r
  end

let clamp ~lo ~hi x = Float.min hi (Float.max lo x)

let is_finite_nonneg x = Float.is_finite x && x >= 0.

let min_arr a =
  if Array.length a = 0 then invalid_arg "Floatx.min_arr: empty array";
  Array.fold_left Float.min a.(0) a

let max_arr a =
  if Array.length a = 0 then invalid_arg "Floatx.max_arr: empty array";
  Array.fold_left Float.max a.(0) a
