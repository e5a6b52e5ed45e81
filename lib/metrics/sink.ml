type 'a t = { push : float -> unit; value : unit -> 'a }

let make ~push ~value = { push; value }

let[@inline] push t x = t.push x

let value t = t.value ()

let[@inline] feed t ~id:_ ~arrival:_ ~flow = t.push flow

let of_array t flows =
  Array.iter t.push flows;
  t.value ()

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

let map f t = { push = t.push; value = (fun () -> f (t.value ())) }

let pair a b =
  {
    push =
      (fun x ->
        a.push x;
        b.push x);
    value = (fun () -> (a.value (), b.value ()));
  }

let all ts =
  {
    push = (fun x -> List.iter (fun t -> t.push x) ts);
    value = (fun () -> List.map (fun t -> t.value ()) ts);
  }

(* ------------------------------------------------------------------ *)
(* Counting and moments                                                *)
(* ------------------------------------------------------------------ *)

let count () =
  let n = ref 0 in
  { push = (fun _ -> incr n); value = (fun () -> !n) }

let moments () =
  let w = Rr_util.Welford.create () in
  { push = Rr_util.Welford.add w; value = (fun () -> w) }

(* ------------------------------------------------------------------ *)
(* lk norms                                                            *)
(* ------------------------------------------------------------------ *)

(* These folds are THE definition of the array functions in {!Norms}:
   [Norms.power_sum ~k flows = of_array (power_sum ~k ()) flows], so the
   streaming and the materialized measurement pipelines share one
   arithmetic (Kahan-compensated sums of [Floatx.powi]), and array values
   are bit-identical to what the pre-streaming implementation produced. *)

let power_sum ~k () =
  if k < 1 then invalid_arg "Sink.power_sum: k must be >= 1";
  let acc = Rr_util.Kahan.create () in
  {
    push =
      (fun f ->
        if f < 0. then invalid_arg "Sink.power_sum: negative flow time";
        (* [f] arrives boxed, and the inlined [powi] returns it as is at
           k = 1, so its other branches would box their result to join
           it.  [f *. 1.] is the same float (zeros keep their sign) and
           reaches [powi] unboxed: nothing is allocated per flow. *)
        Rr_util.Kahan.add acc (Rr_util.Floatx.powi (f *. 1.) k));
    value = (fun () -> Rr_util.Kahan.total acc);
  }

let lk ~k () =
  let n = ref 0 in
  let ps = power_sum ~k () in
  {
    push =
      (fun f ->
        incr n;
        ps.push f);
    value = (fun () -> if !n = 0 then 0. else ps.value () ** (1. /. Float.of_int k));
  }

let normalized_lk ~k () =
  let n = ref 0 in
  let ps = power_sum ~k () in
  {
    push =
      (fun f ->
        incr n;
        ps.push f);
    value =
      (fun () ->
        if !n = 0 then 0.
        else (ps.value () /. Float.of_int !n) ** (1. /. Float.of_int k));
  }

let linf () =
  let n = ref 0 in
  let m = ref Float.neg_infinity in
  {
    push =
      (fun f ->
        incr n;
        if f > !m then m := f);
    value = (fun () -> if !n = 0 then 0. else !m);
  }

(* ------------------------------------------------------------------ *)
(* Merging parallel folds                                              *)
(* ------------------------------------------------------------------ *)

module Merge = struct
  let count = ( + )

  let power_sum = ( +. )

  let linf = Float.max

  let moments = Rr_util.Welford.merge

  let lk ~k values =
    let ps =
      List.fold_left (fun acc v -> acc +. Rr_util.Floatx.powi v k) 0. values
    in
    if ps = 0. then 0. else ps ** (1. /. Float.of_int k)
end

(* Jain & Chlamtac's P² algorithm: the sketch itself lives in
   {!Rr_util.P2} as a marshalable record (the live engine snapshots it);
   this sink is a thin closure over one, raising the historical error
   message for an out-of-range [p].  Arithmetic is unchanged — the P2
   module is the former inline implementation moved verbatim. *)

let quantile ~p () =
  if not (p > 0. && p < 1.) then invalid_arg "Sink.quantile: p must be in (0, 1)";
  let sketch = Rr_util.P2.create ~p () in
  { push = Rr_util.P2.add sketch; value = (fun () -> Rr_util.P2.value sketch) }
