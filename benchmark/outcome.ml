(* What one workload process reports: operations attempted and failed
   (error replies, exceptions, replies later than 5 s, failed correctness
   checks) and the metrics it measured, in emission order. *)

let attempted = ref 0
let failed = ref 0
let metrics : (string * float) list ref = ref []

let attempt () = incr attempted

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      prerr_endline ("benchmark: FAILED: " ^ msg))
    fmt

(* One correctness check: counts as an attempted operation. *)
let check ok fmt =
  attempt ();
  Printf.ksprintf (fun msg -> if not ok then fail "%s" msg) fmt

let metric name v = metrics := (name, v) :: List.remove_assoc name !metrics
let late_limit_s = 5.
