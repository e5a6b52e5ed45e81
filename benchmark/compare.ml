(* compare --base A.json... --head B.json...

   Each file is one [--out] result of the all-workloads command, from the
   parent commit (base) or the change (head); list them in the order they
   ran, so base[i] and head[i] form the i-th alternating pair.  For every
   end-to-end metric of every workload it prints both medians and
   quartiles, the change, the share of pairs the head won (ties count for
   neither side) and a verdict:

   - unresolved: the base runs spread (quartile distance over median)
     wider than the metric's bound, and not every head run beats every
     base run;
   - worse: the head median is worse than the base median by more than
     the bound;
   - better: the head won at least nine tenths of the pairs and the
     medians differ by more than the base quartile distance;
   - same: none of these.

   Exit code 1 when any verdict is "worse". *)

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (its default "exclusive" method), so a spread printed here matches one
   computed from the same result files with Python. *)
let quartiles a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  let ld = Array.length s in
  if ld = 1 then (s.(0), s.(0), s.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. Float.of_int (4 - delta)) +. (s.(j) *. Float.of_int delta)) /. 4.
    in
    (q 1, Rr_util.Stats.median s, q 3)

let load path =
  let j = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  Json.to_obj (Json.member "workloads" j)

let value runs workload metric =
  List.filter_map
    (fun run ->
      let metrics = Json.member "metrics" (Json.member workload (Json.Obj run)) in
      match Json.member "value" (Json.member metric metrics) with
      | Json.Num x -> Some x
      | _ -> None)
    runs
  |> Array.of_list

let failed runs workload =
  List.fold_left
    (fun acc run -> acc +. Json.to_num (Json.member "failed" (Json.member workload (Json.Obj run))))
    0. runs

let verdict ~higher ~bound base head =
  let bq1, bmed, bq3 = quartiles base and _, hmed, _ = quartiles head in
  let better x y = if higher then x > y else x < y in
  let pairs = min (Array.length base) (Array.length head) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better head.(i) base.(i) then incr wins
  done;
  let win_frac = Float.of_int !wins /. Float.of_int (max 1 pairs) in
  let all_better = Array.for_all (fun h -> Array.for_all (fun b -> better h b) base) head in
  let worse_by = (if higher then bmed -. hmed else hmed -. bmed) /. Float.abs bmed in
  let v =
    if (bq3 -. bq1) /. Float.abs bmed > bound && not all_better then "unresolved"
    else if worse_by > bound then "worse"
    else if win_frac >= 0.9 && Float.abs (hmed -. bmed) > bq3 -. bq1 then "better"
    else "same"
  in
  (v, win_frac)

let main ~spec args =
  let rec split side base head = function
    | "--base" :: rest -> split `Base base head rest
    | "--head" :: rest -> split `Head base head rest
    | f :: rest -> (
        match side with
        | `Base -> split side (f :: base) head rest
        | `Head -> split side base (f :: head) rest
        | `None -> failwith ("compare: expected --base or --head before " ^ f))
    | [] -> (List.rev base, List.rev head)
  in
  match split `None [] [] args with
  | exception Failure msg ->
      prerr_endline msg;
      2
  | [], _ | _, [] ->
      prerr_endline "usage: main.exe compare --base A.json... --head B.json...";
      2
  | base_files, head_files ->
      let base = List.map load base_files and head = List.map load head_files in
      let name m = Json.to_str (Json.member "name" m) in
      let workloads = List.map name (Json.to_list (Json.member "workloads" spec)) in
      let any_worse = ref false in
      Printf.printf "%-12s %-16s %28s %28s %8s %5s  %s\n" "workload" "metric" "base median [q1, q3]"
        "head median [q1, q3]" "change" "wins" "verdict";
      List.iter
        (fun w ->
          List.iter
            (fun m ->
              let name = name m in
              let higher = Json.to_str (Json.member "better" m) = "higher" in
              let bound = Json.to_num (Json.member "bound" m) in
              let b = value base w name and h = value head w name in
              if Array.length b > 0 && Array.length h > 0 then begin
                let v, win_frac = verdict ~higher ~bound b h in
                if v = "worse" then any_worse := true;
                let q1, med, q3 = quartiles b and hq1, hmed, hq3 = quartiles h in
                Printf.printf
                  "%-12s %-16s %12.6g [%6.4g, %6.4g] %12.6g [%6.4g, %6.4g] %+7.2f%% %5.2f  %s\n" w
                  name med q1 q3 hmed hq1 hq3
                  (100. *. (hmed -. med) /. Float.abs med)
                  win_frac v
              end)
            (Json.to_list (Json.member "end_to_end" spec));
          let fb = failed base w and fh = failed head w in
          if fh > fb then
            Printf.printf "%-12s failed operations rose from %.0f to %.0f: no gain counts\n" w fb
              fh)
        workloads;
      if !any_worse then 1 else 0
