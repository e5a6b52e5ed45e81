(* In-memory spans around the benchmark's own calls into each layer of the
   library: name, start, end, parent span and request id.  Recording is
   off for the end-to-end measurements; a traced run switches it on, and
   its per-layer times are read from the same clock readings that bound
   the spans.  The spans stay in memory and are written out once, at the
   end, as Chrome trace-event JSON (loadable in Perfetto). *)

let on = ref false

type store = {
  mutable names : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable n : int;
}

let st = { names = [||]; start = [||]; stop = [||]; parent = [||]; req = [||]; n = 0 }
let current = ref (-1)

let grow () =
  let cap = max 4096 (2 * st.n) in
  let ext a fill = Array.append a (Array.make (cap - Array.length a) fill) in
  st.names <- ext st.names "";
  st.start <- ext st.start 0;
  st.stop <- ext st.stop 0;
  st.parent <- ext st.parent (-1);
  st.req <- ext st.req (-1)

let push name req start stop =
  if st.n = Array.length st.names then grow ();
  let i = st.n in
  st.names.(i) <- name;
  st.start.(i) <- start;
  st.stop.(i) <- stop;
  st.parent.(i) <- !current;
  st.req.(i) <- req;
  st.n <- i + 1;
  i

(* A leaf span whose two clock readings the caller already took (the wire
   loops time every call anyway, for their latency samples). *)
let record ?(req = -1) name ~start ~stop = if !on then ignore (push name req start stop : int)

let with_ ?(req = -1) name f =
  if not !on then f ()
  else begin
    let i = push name req (Stat.now_ns ()) (-1) in
    let parent = st.parent.(i) in
    current := i;
    let finish () =
      st.stop.(i) <- Stat.now_ns ();
      current := parent
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let count () = st.n

let write_chrome path =
  let oc = open_out path in
  let t0 = if st.n > 0 then st.start.(0) else 0 in
  output_string oc "{\"traceEvents\": [\n";
  let first = ref true in
  for i = 0 to st.n - 1 do
    if st.stop.(i) >= 0 then begin
      if not !first then output_string oc ",\n";
      first := false;
      Printf.fprintf oc
        "{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \
         \"args\": {\"id\": %d, \"parent\": %d, \"req\": %d}}"
        (Json.to_string (Json.Str st.names.(i)))
        (Float.of_int (st.start.(i) - t0) /. 1e3)
        (Float.of_int (st.stop.(i) - st.start.(i)) /. 1e3)
        i st.parent.(i) st.req.(i)
    end
  done;
  output_string oc "\n], \"displayTimeUnit\": \"ns\"}\n";
  close_out oc
