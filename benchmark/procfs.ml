(* Per-process counters from /proc/<pid>/{stat,io,status}: CPU time, read
   and write syscalls and bytes, context switches and peak RSS.  The
   server child is sampled from the parent at the edges of a timed
   window, so its counters cover exactly the traffic the window sent. *)

type t = {
  user_s : float;
  sys_s : float;
  syscr : int;  (** read-class syscalls *)
  syscw : int;  (** write-class syscalls *)
  rchar : int;  (** bytes read *)
  wchar : int;  (** bytes written *)
  ctx_switches : int;  (** voluntary + involuntary *)
  hwm_mb : float;  (** peak resident set (VmHWM) *)
}

let ticks_per_s = 100.

let read path = try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let keyed text key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.equal (String.sub line 0 i) key ->
          let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          let v = match String.index_opt v ' ' with Some j -> String.sub v 0 j | None -> v in
          int_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' text)
  |> Option.value ~default:0

let sample pid =
  let proc = Printf.sprintf "/proc/%s/" (if pid = 0 then "self" else string_of_int pid) in
  let stat = read (proc ^ "stat") in
  let user_s, sys_s =
    (* Fields after the parenthesised command name: state is field 3,
       utime 14 and stime 15 (clock ticks). *)
    match String.rindex_opt stat ')' with
    | None -> (0., 0.)
    | Some i -> (
        let rest = String.sub stat (i + 2) (String.length stat - i - 2) in
        match String.split_on_char ' ' rest with
        | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: ut :: stt :: _ ->
            (float_of_string ut /. ticks_per_s, float_of_string stt /. ticks_per_s)
        | _ -> (0., 0.))
  in
  let io = read (proc ^ "io") and status = read (proc ^ "status") in
  {
    user_s;
    sys_s;
    syscr = keyed io "syscr";
    syscw = keyed io "syscw";
    rchar = keyed io "rchar";
    wchar = keyed io "wchar";
    ctx_switches =
      keyed status "voluntary_ctxt_switches" + keyed status "nonvoluntary_ctxt_switches";
    hwm_mb = Float.of_int (keyed status "VmHWM") /. 1024.;
  }
