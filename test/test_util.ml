(* Unit and property tests for the rr_util substrate. *)

open Rr_util

let check_float = Alcotest.(check (float 1e-9))
let check_close ?(tol = 1e-9) msg a b = Alcotest.(check (float tol)) msg a b

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_copy () =
  let a = Prng.create ~seed:3 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a) (Prng.bits64 b)

let test_prng_split_independent () =
  let a = Prng.create ~seed:4 in
  let b = Prng.split a in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Prng.bits64 a) (Prng.bits64 b) then incr equal
  done;
  Alcotest.(check bool) "split stream differs" true (!equal < 4)

let test_prng_float_range () =
  let rng = Prng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let x = Prng.float rng in
    if not (x >= 0. && x < 1.) then Alcotest.failf "float out of range: %f" x
  done

let test_prng_float_mean () =
  let rng = Prng.create ~seed:6 in
  let acc = Kahan.create () in
  let n = 100_000 in
  for _ = 1 to n do
    Kahan.add acc (Prng.float rng)
  done;
  check_close ~tol:5e-3 "uniform mean ~ 0.5" 0.5 (Kahan.total acc /. Float.of_int n)

let test_prng_int_bounds () =
  let rng = Prng.create ~seed:7 in
  let counts = Array.make 7 0 in
  for _ = 1 to 70_000 do
    let v = Prng.int rng ~bound:7 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      if c < 9_000 || c > 11_000 then Alcotest.failf "bucket %d skewed: %d" i c)
    counts

let test_prng_exponential_mean () =
  let rng = Prng.create ~seed:8 in
  let acc = Kahan.create () in
  let n = 100_000 in
  for _ = 1 to n do
    Kahan.add acc (Prng.exponential rng ~rate:2.)
  done;
  check_close ~tol:0.01 "exp(rate 2) mean ~ 0.5" 0.5 (Kahan.total acc /. Float.of_int n)

let test_prng_bounded_pareto_support () =
  let rng = Prng.create ~seed:9 in
  for _ = 1 to 10_000 do
    let x = Prng.bounded_pareto rng ~alpha:1.5 ~x_min:1. ~x_max:10. in
    if not (x >= 1. -. 1e-9 && x <= 10. +. 1e-9) then
      Alcotest.failf "bounded pareto out of support: %f" x
  done

let test_prng_shuffle_is_permutation () =
  let rng = Prng.create ~seed:10 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 100 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Kahan                                                               *)
(* ------------------------------------------------------------------ *)

let test_kahan_pathological () =
  (* 1 + 1e16 - 1e16 loses the 1 under naive summation order. *)
  let xs = [| 1.; 1e16; 1.; -1e16 |] in
  check_float "compensated" 2. (Kahan.sum xs)

let test_kahan_matches_naive_on_small () =
  let xs = Array.init 100 (fun i -> Float.of_int (i + 1)) in
  check_float "sum 1..100" 5050. (Kahan.sum xs)

let test_kahan_sum_by () =
  let xs = [| 1.; 2.; 3. |] in
  check_float "sum of squares" 14. (Kahan.sum_by (fun x -> x *. x) xs)

let test_kahan_list () = check_float "list" 6. (Kahan.sum_list [ 1.; 2.; 3. ])

(* ------------------------------------------------------------------ *)
(* Floatx                                                              *)
(* ------------------------------------------------------------------ *)

let test_powi_matches_pow () =
  List.iter
    (fun (x, k) ->
      check_close ~tol:1e-9 (Printf.sprintf "%g^%d" x k) (x ** Float.of_int k)
        (Floatx.powi x k))
    [ (2., 0); (2., 1); (2., 5); (1.5, 3); (0.3, 7); (10., 2) ]

let test_clamp () =
  check_float "below" 0. (Floatx.clamp ~lo:0. ~hi:1. (-5.));
  check_float "above" 1. (Floatx.clamp ~lo:0. ~hi:1. 5.);
  check_float "inside" 0.5 (Floatx.clamp ~lo:0. ~hi:1. 0.5)

let test_approx_equal () =
  Alcotest.(check bool) "close" true (Floatx.approx_equal 1. (1. +. 1e-12));
  Alcotest.(check bool) "far" false (Floatx.approx_equal 1. 1.1)

let test_min_max_arr () =
  check_float "min" (-2.) (Floatx.min_arr [| 3.; -2.; 7. |]);
  check_float "max" 7. (Floatx.max_arr [| 3.; -2.; 7. |]);
  Alcotest.check_raises "empty min" (Invalid_argument "Floatx.min_arr: empty array") (fun () ->
      ignore (Floatx.min_arr [||]))

(* ------------------------------------------------------------------ *)
(* Welford / Stats                                                     *)
(* ------------------------------------------------------------------ *)

let test_welford_moments () =
  let w = Welford.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Welford.mean w);
  check_float "variance" 4. (Welford.variance w);
  check_float "stddev" 2. (Welford.stddev w);
  check_float "min" 2. (Welford.min w);
  check_float "max" 9. (Welford.max w);
  Alcotest.(check int) "count" 8 (Welford.count w)

let test_welford_empty () =
  let w = Welford.create () in
  check_float "mean of empty" 0. (Welford.mean w);
  check_float "variance of empty" 0. (Welford.variance w)

let prop_welford_matches_direct =
  QCheck2.Test.make ~name:"welford matches two-pass variance" ~count:200
    QCheck2.Gen.(list_size (int_range 2 50) (float_bound_inclusive 1000.))
    (fun xs ->
      let a = Array.of_list xs in
      let w = Welford.of_array a in
      let n = Float.of_int (Array.length a) in
      let mean = Array.fold_left ( +. ) 0. a /. n in
      let var = Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. a /. n in
      Float.abs (Welford.variance w -. var) <= 1e-6 *. (1. +. var))

let test_percentile () =
  let a = [| 1.; 2.; 3.; 4. |] in
  check_float "p0" 1. (Stats.percentile a ~p:0.);
  check_float "p100" 4. (Stats.percentile a ~p:100.);
  check_float "p50 interpolates" 2.5 (Stats.percentile a ~p:50.);
  check_float "median" 2.5 (Stats.median a)

let test_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] ~p:50.));
  Alcotest.check_raises "range" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Stats.percentile [| 1. |] ~p:101.))

let test_jain () =
  check_float "equal is 1" 1. (Stats.jain_index [| 2.; 2.; 2. |]);
  check_float "single winner is 1/n" 0.25 (Stats.jain_index [| 1.; 0.; 0.; 0. |]);
  check_float "empty is 1" 1. (Stats.jain_index [||]);
  check_float "all zero is 1" 1. (Stats.jain_index [| 0.; 0. |])

let prop_jain_bounds =
  QCheck2.Test.make ~name:"jain index lies in [1/n, 1]" ~count:300
    QCheck2.Gen.(list_size (int_range 1 30) (float_range 0.0001 100.))
    (fun xs ->
      let a = Array.of_list xs in
      let j = Stats.jain_index a in
      let n = Float.of_int (Array.length a) in
      j >= (1. /. n) -. 1e-9 && j <= 1. +. 1e-9)

let test_cv () =
  check_float "constant data" 0. (Stats.coefficient_of_variation [| 3.; 3.; 3. |])

(* ------------------------------------------------------------------ *)
(* Flat folds vs their array-based originals (Fold_oracle), bit for bit *)
(* ------------------------------------------------------------------ *)

(* Streams of [len] observations: two heavy-tailed random ones on fixed
   seeds, heavy ties, a constant, and both monotone orders. *)
let fold_streams =
  [
    ("exp(1)", true, fun rng _ _ -> Prng.exponential rng ~rate:1.);
    ( "bpareto(1.5)",
      true,
      fun rng _ _ -> Prng.bounded_pareto rng ~alpha:1.5 ~x_min:0.1 ~x_max:1e4 );
    ("ties", false, fun _ _ i -> Float.of_int (i mod 7));
    ("constant", false, fun _ _ _ -> 2.5);
    ("ascending", false, fun _ _ i -> Float.of_int i);
    ("descending", false, fun _ len i -> Float.of_int (len - i));
  ]

let fold_lengths = [ 0; 1; 2; 3; 4; 5; 6; 5_000 ]
let fold_ps = [ 0.01; 0.25; 0.5; 0.9; 0.99 ]

(* Every stream at every length, with 40 seeds for the random ones. *)
let fold_inputs () =
  List.concat_map
    (fun (name, seeded, gen) ->
      List.concat_map
        (fun len ->
          List.map
            (fun seed ->
              let rng = Prng.create ~seed in
              (Printf.sprintf "%s len=%d seed=%d" name len seed, Array.init len (gen rng len)))
            (if seeded then List.init 40 (fun s -> 1000 + s) else [ 0 ]))
        fold_lengths)
    fold_streams

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let test_p2_matches_oracle () =
  List.iter
    (fun (label, xs) ->
      List.iter
        (fun p ->
          let t = P2.create ~p () and o = Fold_oracle.P2.create ~p () in
          let check i =
            if
              P2.count t <> Fold_oracle.P2.count o
              || not (same_bits (P2.value t) (Fold_oracle.P2.value o))
            then
              Alcotest.failf "%s p=%g after %d adds: %d %h, oracle %d %h" label p i (P2.count t)
                (P2.value t) (Fold_oracle.P2.count o) (Fold_oracle.P2.value o)
          in
          check 0;
          Array.iteri
            (fun i x ->
              P2.add t x;
              Fold_oracle.P2.add o x;
              check (i + 1))
            xs)
        fold_ps)
    (fold_inputs ())

let welford_differs (w : Welford.t) (o : Fold_oracle.Welford.t) =
  Welford.count w <> Fold_oracle.Welford.count o
  || (not (same_bits (Welford.mean w) (Fold_oracle.Welford.mean o)))
  || (not (same_bits (Welford.variance w) (Fold_oracle.Welford.variance o)))
  || Welford.count w > 0
     && ((not (same_bits (Welford.min w) (Fold_oracle.Welford.min o)))
        || not (same_bits (Welford.max w) (Fold_oracle.Welford.max o)))

let test_welford_matches_oracle () =
  List.iter
    (fun (label, xs) ->
      let w = Welford.create () and o = Fold_oracle.Welford.create () in
      Array.iteri
        (fun i x ->
          Welford.add w x;
          Fold_oracle.Welford.add o x;
          if welford_differs w o then Alcotest.failf "%s: differs after %d adds" label (i + 1))
        xs;
      let half = Array.length xs / 2 in
      let a = Array.sub xs 0 half and b = Array.sub xs half (Array.length xs - half) in
      let merged = Welford.merge (Welford.of_array a) (Welford.of_array b) in
      let oracle = Fold_oracle.Welford.(merge (of_array a) (of_array b)) in
      if welford_differs merged oracle then Alcotest.failf "%s: merge of halves differs" label)
    (fold_inputs ())

(* ------------------------------------------------------------------ *)
(* Table                                                               *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "x"; "y" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0 && String.sub s 0 3 = "== ");
  Alcotest.(check bool) "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "x  y "))

let test_table_arity_check () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "b" ] in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: expected 2 cells, got 1")
    (fun () -> Table.add_row t [ "only one" ])

let test_fcell () =
  Alcotest.(check string) "integer" "3" (Table.fcell 3.);
  Alcotest.(check string) "fractional" "3.1400" (Table.fcell 3.14);
  Alcotest.(check string) "tiny" "1.000e-09" (Table.fcell 1e-9)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_welford_matches_direct; prop_jain_bounds ]

let () =
  Alcotest.run "rr_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "split" `Quick test_prng_split_independent;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float mean" `Quick test_prng_float_mean;
          Alcotest.test_case "int buckets" `Quick test_prng_int_bounds;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "bounded pareto support" `Quick test_prng_bounded_pareto_support;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_is_permutation;
        ] );
      ( "kahan",
        [
          Alcotest.test_case "pathological" `Quick test_kahan_pathological;
          Alcotest.test_case "small exact" `Quick test_kahan_matches_naive_on_small;
          Alcotest.test_case "sum_by" `Quick test_kahan_sum_by;
          Alcotest.test_case "sum_list" `Quick test_kahan_list;
        ] );
      ( "floatx",
        [
          Alcotest.test_case "powi" `Quick test_powi_matches_pow;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "approx_equal" `Quick test_approx_equal;
          Alcotest.test_case "min/max" `Quick test_min_max_arr;
        ] );
      ( "stats",
        [
          Alcotest.test_case "welford moments" `Quick test_welford_moments;
          Alcotest.test_case "welford empty" `Quick test_welford_empty;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile errors" `Quick test_percentile_errors;
          Alcotest.test_case "jain" `Quick test_jain;
          Alcotest.test_case "cv" `Quick test_cv;
        ] );
      ( "folds",
        [
          Alcotest.test_case "p2 = oracle bit for bit" `Quick test_p2_matches_oracle;
          Alcotest.test_case "welford = oracle bit for bit" `Quick test_welford_matches_oracle;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "arity" `Quick test_table_arity_check;
          Alcotest.test_case "fcell" `Quick test_fcell;
        ] );
      ("properties", qsuite);
    ]
