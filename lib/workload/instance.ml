type t = { jobs : Rr_engine.Job.t list; label : string; digest_memo : int64 option ref }

let of_jobs ?(label = "custom") pairs =
  let sorted =
    List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) pairs
  in
  let jobs =
    List.mapi (fun id (arrival, size) -> Rr_engine.Job.make ~id ~arrival ~size) sorted
  in
  { jobs; label; digest_memo = ref None }

let generate ~rng ~arrivals ~sizes ~n () =
  let times = Arrivals.generate rng arrivals ~n in
  let pairs =
    Array.to_list (Array.map (fun t -> (t, Distribution.sample rng sizes)) times)
  in
  of_jobs
    ~label:(Printf.sprintf "%s/%s/n=%d" (Arrivals.name arrivals) (Distribution.name sizes) n)
    pairs

let load_rate ~sizes ~load ~machines =
  if load <= 0. then invalid_arg "Instance.generate_load: load must be positive";
  let mu = Distribution.mean sizes in
  if not (Float.is_finite mu && mu > 0.) then
    invalid_arg "Instance.generate_load: size distribution must have a finite positive mean";
  load *. Float.of_int machines /. mu

let load_label ~sizes ~load ~machines ~n =
  Printf.sprintf "%s/rho=%.2f/m=%d/n=%d" (Distribution.name sizes) load machines n

let generate_load ~rng ~sizes ~load ~machines ~n () =
  let rate = load_rate ~sizes ~load ~machines in
  let inst = generate ~rng ~arrivals:(Arrivals.Poisson { rate }) ~sizes ~n () in
  (* The digest ignores the label, so the memo survives the relabel. *)
  { inst with label = load_label ~sizes ~load ~machines ~n }

let n t = List.length t.jobs

let total_work t = Rr_util.Kahan.sum_list (List.map (fun (j : Rr_engine.Job.t) -> j.size) t.jobs)

let span t =
  match t.jobs with
  | [] | [ _ ] -> 0.
  | first :: rest ->
      let last = List.fold_left (fun _ j -> j) first rest in
      last.Rr_engine.Job.arrival -. first.Rr_engine.Job.arrival

let offered_load ~machines t =
  let s = span t in
  let w = total_work t in
  if s <= 0. then if w > 0. then Float.infinity else 0.
  else w /. (Float.of_int machines *. s)

let jobs t = t.jobs

(* FNV-1a over the job count and the bit patterns of every (arrival, size)
   pair.  The label is deliberately excluded: it is presentation-only, and
   two instances with identical jobs are interchangeable for simulation —
   exactly the equivalence the result cache wants.  [Stream.digest] folds
   the same mix over generated jobs without materializing them, so a
   stream and its materialization always share a digest. *)
let fnv_prime = 0x100000001b3L
let fnv_basis = 0xcbf29ce484222325L

let digest t =
  match !(t.digest_memo) with
  | Some d -> d
  | None ->
      let h = ref fnv_basis in
      let mix bits = h := Int64.mul (Int64.logxor !h bits) fnv_prime in
      mix (Int64.of_int (List.length t.jobs));
      List.iter
        (fun (j : Rr_engine.Job.t) ->
          mix (Int64.bits_of_float j.arrival);
          mix (Int64.bits_of_float j.size))
        t.jobs;
      t.digest_memo := Some !h;
      !h

let relabel label t = { t with label }

let pp ppf t =
  Format.fprintf ppf "instance %s: %d jobs, work %.3f, span %.3f" t.label (n t) (total_work t)
    (span t)

module Stream = struct
  type instance = t

  type source =
    | Generated of { arrivals : Arrivals.t; sizes : Distribution.t; seed : int }
    | Materialized of Rr_engine.Job.t list

  type t = { source : source; n : int; label : string; digest_memo : int64 option ref }

  let generate ~seed ~arrivals ~sizes ~n () =
    if n < 0 then invalid_arg "Instance.Stream.generate: n must be non-negative";
    (match Arrivals.validate arrivals with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Instance.Stream.generate: " ^ msg));
    {
      source = Generated { arrivals; sizes; seed };
      n;
      label =
        Printf.sprintf "%s/%s/n=%d" (Arrivals.name arrivals) (Distribution.name sizes) n;
      digest_memo = ref None;
    }

  let generate_load ~seed ~sizes ~load ~machines ~n () =
    let rate = load_rate ~sizes ~load ~machines in
    let s = generate ~seed ~arrivals:(Arrivals.Poisson { rate }) ~sizes ~n () in
    { s with label = load_label ~sizes ~load ~machines ~n }

  let of_instance inst =
    {
      source = Materialized inst.jobs;
      n = List.length inst.jobs;
      label = inst.label;
      digest_memo = inst.digest_memo (* shared: same jobs, same digest *);
    }

  let n s = s.n
  let label s = s.label
  let relabel label s = { s with label }

  (* Unboxed cursor for the zero-alloc streaming path.  Specializing the
     Poisson-arrival case matters: the arrival accumulator lives in the
     cursor itself (a flat float record the simulator owns, zeroed at
     [Source.of_raw] time), and the size distribution is dispatched by a
     per-call match whose arms bottom out in [@inline]d PRNG draws — so
     the generated fill closure allocates nothing per job.  Draw order
     (arrival, then size) is identical to {!start}, so raw and boxed
     cursors over one stream yield bit-identical jobs. *)
  let start_raw s =
    match s.source with
    | Materialized jobs ->
        let rest = ref jobs in
        fun (cur : Rr_engine.Simulator.Source.cursor) ->
          (match !rest with
          | [] -> -1
          | j :: tl ->
              rest := tl;
              cur.arrival <- j.Rr_engine.Job.arrival;
              cur.size <- j.Rr_engine.Job.size;
              j.Rr_engine.Job.id)
    | Generated { arrivals; sizes; seed } ->
        (* The specialized path bypasses [Distribution.sample]'s per-call
           check, so validate once up front. *)
        (match Distribution.validate sizes with
        | Ok () -> ()
        | Error msg -> invalid_arg ("Instance.Stream.start_raw: Distribution: " ^ msg));
        let rng = Rr_util.Prng.create ~seed in
        let id = ref 0 in
        let n = s.n in
        (match arrivals with
        | Arrivals.Poisson { rate } -> (
            (* One fill closure per size constructor: dispatching the size
               draw inside a single closure would funnel six float arms
               through one match join, and the join point boxes the float
               before the [cur.size <-] store.  Specializing keeps each
               closure's size expression a single unboxed arm. *)
            match sizes with
            | Distribution.Deterministic p ->
                fun (cur : Rr_engine.Simulator.Source.cursor) ->
                  if !id >= n then -1
                  else begin
                    cur.arrival <- cur.arrival +. Rr_util.Prng.exponential rng ~rate;
                    cur.size <- p;
                    let i = !id in
                    incr id;
                    i
                  end
            | Distribution.Uniform { lo; hi } ->
                fun (cur : Rr_engine.Simulator.Source.cursor) ->
                  if !id >= n then -1
                  else begin
                    cur.arrival <- cur.arrival +. Rr_util.Prng.exponential rng ~rate;
                    cur.size <- Rr_util.Prng.float_range rng ~lo ~hi;
                    let i = !id in
                    incr id;
                    i
                  end
            | Distribution.Exponential { mean } ->
                let size_rate = 1. /. mean in
                fun (cur : Rr_engine.Simulator.Source.cursor) ->
                  if !id >= n then -1
                  else begin
                    cur.arrival <- cur.arrival +. Rr_util.Prng.exponential rng ~rate;
                    cur.size <- Rr_util.Prng.exponential rng ~rate:size_rate;
                    let i = !id in
                    incr id;
                    i
                  end
            | Distribution.Pareto { alpha; x_min } ->
                fun (cur : Rr_engine.Simulator.Source.cursor) ->
                  if !id >= n then -1
                  else begin
                    cur.arrival <- cur.arrival +. Rr_util.Prng.exponential rng ~rate;
                    cur.size <- Rr_util.Prng.pareto rng ~alpha ~x_min;
                    let i = !id in
                    incr id;
                    i
                  end
            | Distribution.Bounded_pareto { alpha; x_min; x_max } ->
                (* The distribution's powers, once per stream: a draw
                   then costs one [pow], and equals the boxed path's. *)
                let c = Rr_util.Prng.bounded_pareto_constants ~alpha ~x_min ~x_max in
                fun (cur : Rr_engine.Simulator.Source.cursor) ->
                  if !id >= n then -1
                  else begin
                    cur.arrival <- cur.arrival +. Rr_util.Prng.exponential rng ~rate;
                    cur.size <- Rr_util.Prng.bounded_pareto_draw rng c;
                    let i = !id in
                    incr id;
                    i
                  end
            | Distribution.Bimodal { small; large; prob_large } ->
                fun (cur : Rr_engine.Simulator.Source.cursor) ->
                  if !id >= n then -1
                  else begin
                    cur.arrival <- cur.arrival +. Rr_util.Prng.exponential rng ~rate;
                    cur.size <-
                      (if Rr_util.Prng.float rng < prob_large then large else small);
                    let i = !id in
                    incr id;
                    i
                  end)
        | _ ->
            let next_arrival = Arrivals.sampler rng arrivals in
            fun (cur : Rr_engine.Simulator.Source.cursor) ->
              if !id >= n then -1
              else begin
                cur.arrival <- next_arrival ();
                cur.size <- Distribution.sample rng sizes;
                let i = !id in
                incr id;
                i
              end)

  let start s =
    match s.source with
    | Materialized jobs ->
        let rest = ref jobs in
        fun () ->
          (match !rest with
          | [] -> None
          | j :: tl ->
              rest := tl;
              Some j)
    | Generated { arrivals; sizes; seed } ->
        (* A fresh cursor per [start]: replayable from the seed alone, so
           digesting, simulating, and re-simulating (possibly on another
           domain) all see the identical job sequence. *)
        let rng = Rr_util.Prng.create ~seed in
        let next_arrival = Arrivals.sampler rng arrivals in
        let id = ref 0 in
        fun () ->
          if !id >= s.n then None
          else begin
            let arrival = next_arrival () in
            let size = Distribution.sample rng sizes in
            let j = Rr_engine.Job.make ~id:!id ~arrival ~size in
            incr id;
            Some j
          end

  let digest s =
    match !(s.digest_memo) with
    | Some d -> d
    | None ->
        let h = ref fnv_basis in
        let mix bits = h := Int64.mul (Int64.logxor !h bits) fnv_prime in
        mix (Int64.of_int s.n);
        let pull = start s in
        let rec loop () =
          match pull () with
          | None -> ()
          | Some (j : Rr_engine.Job.t) ->
              mix (Int64.bits_of_float j.arrival);
              mix (Int64.bits_of_float j.size);
              loop ()
        in
        loop ();
        s.digest_memo := Some !h;
        !h

  let materialize s =
    let pull = start s in
    let rec collect acc =
      match pull () with None -> List.rev acc | Some j -> collect (j :: acc)
    in
    (* Jobs come out sorted with dense ids already, so no re-sort; the memo
       ref is shared because stream and materialization digest equal. *)
    ({ jobs = collect []; label = s.label; digest_memo = s.digest_memo } : instance)
end
