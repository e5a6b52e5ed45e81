(* Grow-on-demand byte queue with a contiguous readable region.  See
   ring.mli for the contract.  [pos] is the dead-prefix length; live
   bytes occupy [pos .. pos + len - 1].  Compaction (shift-to-front)
   happens only inside [reserve], so any offset handed out by [alloc]
   stays valid until the next reserve/alloc — the frame writers rely on
   that to fill headers and payloads in place. *)

type t = { mutable buf : Bytes.t; mutable pos : int; mutable len : int }

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { buf = Bytes.create capacity; pos = 0; len = 0 }

let length t = t.len
let is_empty t = t.len = 0

let clear t =
  t.pos <- 0;
  t.len <- 0

let buf t = t.buf
let pos t = t.pos

let reserve t extra =
  if extra < 0 then invalid_arg "Ring.reserve: negative size";
  let cap = Bytes.length t.buf in
  if t.pos + t.len + extra > cap then
    if t.len + extra <= cap then begin
      (* The dead prefix alone frees enough space: compact in place. *)
      Bytes.blit t.buf t.pos t.buf 0 t.len;
      t.pos <- 0
    end
    else begin
      let cap' = ref (Int.max 16 cap) in
      while t.len + extra > !cap' do
        cap' := !cap' * 2
      done;
      let b = Bytes.create !cap' in
      Bytes.blit t.buf t.pos b 0 t.len;
      t.buf <- b;
      t.pos <- 0
    end

let alloc t n =
  reserve t n;
  let off = t.pos + t.len in
  t.len <- t.len + n;
  off

let add_substring t s off len =
  let dst = alloc t len in
  Bytes.blit_string s off t.buf dst len

let add_string t s = add_substring t s 0 (String.length s)

let add_char t c =
  let dst = alloc t 1 in
  Bytes.set t.buf dst c

let add_subbytes t b off len =
  let dst = alloc t len in
  Bytes.blit b off t.buf dst len

let consume t n =
  if n < 0 || n > t.len then invalid_arg "Ring.consume: out of range";
  t.pos <- t.pos + n;
  t.len <- t.len - n;
  if t.len = 0 then t.pos <- 0

let read_from_fd ?(chunk = 65536) t fd =
  reserve t chunk;
  match Unix.read fd t.buf (t.pos + t.len) chunk with
  | 0 -> `Eof
  | n ->
      t.len <- t.len + n;
      `Read n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> `Again
  (* ECONNRESET from a peer that hung up with our replies unread, or any
     other error: the descriptor is unusable, never the whole process. *)
  | exception Unix.Unix_error _ -> `Closed

let write_to_fd t fd =
  match Unix.write fd t.buf t.pos t.len with
  | n ->
      consume t n;
      `Wrote n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> `Again
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> `Closed
