(* xoshiro256++ with the four 64-bit state words stored in one 32-byte
   [Bytes] block instead of four mutable [int64] record fields.  The
   sequence is bit-identical to the record representation — only the
   storage changed — but the difference in allocation is dramatic: a
   mutable [int64] record field boxes on every write (3 words each, so a
   [bits64] step paid ~12 words), while [%caml_bytes_get64u]/[set64u]
   read and write raw 64-bit lanes with no boxing at all.  With the hot
   ops [@inline]d below, a streaming workload draws millions of floats
   per second at zero words per draw. *)

type t = Bytes.t (* 32 bytes: s0 s1 s2 s3, native-endian 64-bit lanes *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* SplitMix64 step, used only to expand the seed into the Xoshiro state and
   to derive split streams. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let s = ref seed64 in
  let t = Bytes.create 32 in
  set64 t 0 (splitmix64 s);
  set64 t 8 (splitmix64 s);
  set64 t 16 (splitmix64 s);
  set64 t 24 (splitmix64 s);
  t

let create ~seed = of_seed64 (Int64.of_int seed)

let copy t = Bytes.copy t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] bits64 t =
  let open Int64 in
  let s0 = get64 t 0
  and s1 = get64 t 8
  and s2 = get64 t 16
  and s3 = get64 t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 s2;
  set64 t 24 s3;
  result

let split t = of_seed64 (bits64 t)

let[@inline] float t =
  (* Top 53 bits give a uniform dyadic rational in [0, 1). *)
  let x = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float x *. 0x1p-53

let[@inline] float_range t ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

let int t ~bound =
  assert (bound > 0);
  (* Rejection sampling over the low bits to avoid modulo bias. *)
  let b = Int64.of_int bound in
  let mask =
    let rec widen m = if Int64.unsigned_compare m b >= 0 then m else widen Int64.(add (shift_left m 1) 1L) in
    widen 1L
  in
  let rec draw () =
    let x = Int64.logand (bits64 t) mask in
    if Int64.unsigned_compare x b < 0 then Int64.to_int x else draw ()
  in
  draw ()

let bool t = Int64.logand (bits64 t) 1L = 1L

let[@inline] exponential t ~rate =
  assert (rate > 0.);
  let u = 1. -. float t in
  -.log u /. rate

let[@inline] pareto t ~alpha ~x_min =
  assert (alpha > 0. && x_min > 0.);
  let u = 1. -. float t in
  x_min /. (u ** (1. /. alpha))

(* Inverse CDF of the bounded Pareto distribution at [u], given
   [l = x_min ** alpha], [h = x_max ** alpha] and [e = -1 / alpha]: the
   one expression every bounded-Pareto draw goes through. *)
let[@inline] bounded_pareto_inv u ~l ~h ~e = ((-.(u *. h) +. (u *. l) +. h) /. (h *. l)) ** e

let[@inline] bounded_pareto t ~alpha ~x_min ~x_max =
  assert (alpha > 0. && 0. < x_min && x_min < x_max);
  let u = float t in
  bounded_pareto_inv u ~l:(x_min ** alpha) ~h:(x_max ** alpha) ~e:(-1. /. alpha)

(* All-float, hence flat: a stream's draws read the constants unboxed. *)
type bounded_pareto = { l : float; h : float; e : float }

let bounded_pareto_constants ~alpha ~x_min ~x_max =
  assert (alpha > 0. && 0. < x_min && x_min < x_max);
  { l = x_min ** alpha; h = x_max ** alpha; e = -1. /. alpha }

let[@inline] bounded_pareto_draw t c =
  let u = float t in
  bounded_pareto_inv u ~l:c.l ~h:c.h ~e:c.e

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
