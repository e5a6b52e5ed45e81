(* ------------------------------------------------------------------ *)
(* Scalar heap: float keys, int payloads, zero allocation per op       *)
(* ------------------------------------------------------------------ *)

module Scalar = struct
  type t = {
    mutable keys : float array;  (* unboxed float array *)
    mutable vals : int array;
    mutable size : int;
  }

  let create () = { keys = [||]; vals = [||]; size = 0 }

  let[@inline] length t = t.size

  let[@inline] is_empty t = t.size = 0

  let[@inline] clear t = t.size <- 0

  let grow t =
    let cap = Array.length t.keys in
    if t.size = cap then begin
      let ncap = Int.max 8 (2 * cap) in
      let nk = Array.make ncap 0. and nv = Array.make ncap 0 in
      Array.blit t.keys 0 nk 0 t.size;
      Array.blit t.vals 0 nv 0 t.size;
      t.keys <- nk;
      t.vals <- nv
    end

  (* Ties on the key break towards the smaller payload, so pop order is
     deterministic for equal keys. *)
  let[@inline] lt t i j =
    let ki = Array.unsafe_get t.keys i and kj = Array.unsafe_get t.keys j in
    ki < kj || (ki = kj && Array.unsafe_get t.vals i < Array.unsafe_get t.vals j)

  let[@inline] swap t i j =
    let k = Array.unsafe_get t.keys i and v = Array.unsafe_get t.vals i in
    Array.unsafe_set t.keys i (Array.unsafe_get t.keys j);
    Array.unsafe_set t.vals i (Array.unsafe_get t.vals j);
    Array.unsafe_set t.keys j k;
    Array.unsafe_set t.vals j v

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if lt t i parent then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && lt t l !smallest then smallest := l;
    if r < t.size && lt t r !smallest then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let[@inline] add t ~key v =
    grow t;
    t.keys.(t.size) <- key;
    t.vals.(t.size) <- v;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let[@inline] min_key_exn t =
    if t.size = 0 then invalid_arg "Heap.Scalar.min_key_exn: empty heap";
    t.keys.(0)

  let[@inline] min_val_exn t =
    if t.size = 0 then invalid_arg "Heap.Scalar.min_val_exn: empty heap";
    t.vals.(0)

  let[@inline] pop_exn t =
    if t.size = 0 then invalid_arg "Heap.Scalar.pop_exn: empty heap";
    let v = t.vals.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.keys.(0) <- t.keys.(t.size);
      t.vals.(0) <- t.vals.(t.size);
      sift_down t 0
    end;
    v
end

(* ------------------------------------------------------------------ *)
(* Scalar heap with two float satellites riding along each element     *)
(* ------------------------------------------------------------------ *)

module Scalar2 = struct
  type t = {
    mutable keys : float array;  (* unboxed float arrays throughout *)
    mutable vals : int array;
    mutable aux1 : float array;
    mutable aux2 : float array;
    mutable size : int;
  }

  let create () = { keys = [||]; vals = [||]; aux1 = [||]; aux2 = [||]; size = 0 }

  let[@inline] length t = t.size

  let[@inline] is_empty t = t.size = 0

  let[@inline] clear t = t.size <- 0

  let grow t =
    let cap = Array.length t.keys in
    if t.size = cap then begin
      let ncap = Int.max 8 (2 * cap) in
      let nk = Array.make ncap 0.
      and nv = Array.make ncap 0
      and n1 = Array.make ncap 0.
      and n2 = Array.make ncap 0. in
      Array.blit t.keys 0 nk 0 t.size;
      Array.blit t.vals 0 nv 0 t.size;
      Array.blit t.aux1 0 n1 0 t.size;
      Array.blit t.aux2 0 n2 0 t.size;
      t.keys <- nk;
      t.vals <- nv;
      t.aux1 <- n1;
      t.aux2 <- n2
    end

  let[@inline] lt t i j =
    let ki = Array.unsafe_get t.keys i and kj = Array.unsafe_get t.keys j in
    ki < kj || (ki = kj && Array.unsafe_get t.vals i < Array.unsafe_get t.vals j)

  let[@inline] swap t i j =
    let k = Array.unsafe_get t.keys i
    and v = Array.unsafe_get t.vals i
    and a = Array.unsafe_get t.aux1 i
    and b = Array.unsafe_get t.aux2 i in
    Array.unsafe_set t.keys i (Array.unsafe_get t.keys j);
    Array.unsafe_set t.vals i (Array.unsafe_get t.vals j);
    Array.unsafe_set t.aux1 i (Array.unsafe_get t.aux1 j);
    Array.unsafe_set t.aux2 i (Array.unsafe_get t.aux2 j);
    Array.unsafe_set t.keys j k;
    Array.unsafe_set t.vals j v;
    Array.unsafe_set t.aux1 j a;
    Array.unsafe_set t.aux2 j b

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if lt t i parent then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && lt t l !smallest then smallest := l;
    if r < t.size && lt t r !smallest then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let[@inline] add t ~key ~aux1 ~aux2 v =
    grow t;
    t.keys.(t.size) <- key;
    t.vals.(t.size) <- v;
    t.aux1.(t.size) <- aux1;
    t.aux2.(t.size) <- aux2;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let[@inline] min_key_exn t =
    if t.size = 0 then invalid_arg "Heap.Scalar2.min_key_exn: empty heap";
    t.keys.(0)

  let[@inline] min_val_exn t =
    if t.size = 0 then invalid_arg "Heap.Scalar2.min_val_exn: empty heap";
    t.vals.(0)

  let[@inline] min_aux1_exn t =
    if t.size = 0 then invalid_arg "Heap.Scalar2.min_aux1_exn: empty heap";
    t.aux1.(0)

  let[@inline] min_aux2_exn t =
    if t.size = 0 then invalid_arg "Heap.Scalar2.min_aux2_exn: empty heap";
    t.aux2.(0)

  let[@inline] pop_exn t =
    if t.size = 0 then invalid_arg "Heap.Scalar2.pop_exn: empty heap";
    let v = t.vals.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.keys.(0) <- t.keys.(t.size);
      t.vals.(0) <- t.vals.(t.size);
      t.aux1.(0) <- t.aux1.(t.size);
      t.aux2.(0) <- t.aux2.(t.size);
      sift_down t 0
    end;
    v

  let iter f t =
    for i = 0 to t.size - 1 do
      f t.keys.(i) t.vals.(i) t.aux1.(i) t.aux2.(i)
    done

  let add_all dst src =
    for i = 0 to src.size - 1 do
      add dst ~key:src.keys.(i) ~aux1:src.aux1.(i) ~aux2:src.aux2.(i) src.vals.(i)
    done
end

(* ------------------------------------------------------------------ *)
(* Scalar heap with three float satellites riding along each element   *)
(* ------------------------------------------------------------------ *)

module Scalar3 = struct
  type t = {
    mutable keys : float array;  (* unboxed float arrays throughout *)
    mutable vals : int array;
    mutable aux1 : float array;
    mutable aux2 : float array;
    mutable aux3 : float array;
    mutable size : int;
  }

  let create () =
    { keys = [||]; vals = [||]; aux1 = [||]; aux2 = [||]; aux3 = [||]; size = 0 }

  let[@inline] length t = t.size

  let[@inline] is_empty t = t.size = 0

  let[@inline] clear t = t.size <- 0

  let grow t =
    let cap = Array.length t.keys in
    if t.size = cap then begin
      let ncap = Int.max 8 (2 * cap) in
      let nk = Array.make ncap 0.
      and nv = Array.make ncap 0
      and n1 = Array.make ncap 0.
      and n2 = Array.make ncap 0.
      and n3 = Array.make ncap 0. in
      Array.blit t.keys 0 nk 0 t.size;
      Array.blit t.vals 0 nv 0 t.size;
      Array.blit t.aux1 0 n1 0 t.size;
      Array.blit t.aux2 0 n2 0 t.size;
      Array.blit t.aux3 0 n3 0 t.size;
      t.keys <- nk;
      t.vals <- nv;
      t.aux1 <- n1;
      t.aux2 <- n2;
      t.aux3 <- n3
    end

  let[@inline] lt t i j =
    let ki = Array.unsafe_get t.keys i and kj = Array.unsafe_get t.keys j in
    ki < kj || (ki = kj && Array.unsafe_get t.vals i < Array.unsafe_get t.vals j)

  let[@inline] swap t i j =
    let k = Array.unsafe_get t.keys i
    and v = Array.unsafe_get t.vals i
    and a = Array.unsafe_get t.aux1 i
    and b = Array.unsafe_get t.aux2 i
    and c = Array.unsafe_get t.aux3 i in
    Array.unsafe_set t.keys i (Array.unsafe_get t.keys j);
    Array.unsafe_set t.vals i (Array.unsafe_get t.vals j);
    Array.unsafe_set t.aux1 i (Array.unsafe_get t.aux1 j);
    Array.unsafe_set t.aux2 i (Array.unsafe_get t.aux2 j);
    Array.unsafe_set t.aux3 i (Array.unsafe_get t.aux3 j);
    Array.unsafe_set t.keys j k;
    Array.unsafe_set t.vals j v;
    Array.unsafe_set t.aux1 j a;
    Array.unsafe_set t.aux2 j b;
    Array.unsafe_set t.aux3 j c

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if lt t i parent then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && lt t l !smallest then smallest := l;
    if r < t.size && lt t r !smallest then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let[@inline] add t ~key ~aux1 ~aux2 ~aux3 v =
    grow t;
    t.keys.(t.size) <- key;
    t.vals.(t.size) <- v;
    t.aux1.(t.size) <- aux1;
    t.aux2.(t.size) <- aux2;
    t.aux3.(t.size) <- aux3;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let[@inline] min_key_exn t =
    if t.size = 0 then invalid_arg "Heap.Scalar3.min_key_exn: empty heap";
    t.keys.(0)

  let[@inline] min_val_exn t =
    if t.size = 0 then invalid_arg "Heap.Scalar3.min_val_exn: empty heap";
    t.vals.(0)

  let[@inline] min_aux1_exn t =
    if t.size = 0 then invalid_arg "Heap.Scalar3.min_aux1_exn: empty heap";
    t.aux1.(0)

  let[@inline] min_aux2_exn t =
    if t.size = 0 then invalid_arg "Heap.Scalar3.min_aux2_exn: empty heap";
    t.aux2.(0)

  let[@inline] min_aux3_exn t =
    if t.size = 0 then invalid_arg "Heap.Scalar3.min_aux3_exn: empty heap";
    t.aux3.(0)

  let[@inline] pop_exn t =
    if t.size = 0 then invalid_arg "Heap.Scalar3.pop_exn: empty heap";
    let v = t.vals.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.keys.(0) <- t.keys.(t.size);
      t.vals.(0) <- t.vals.(t.size);
      t.aux1.(0) <- t.aux1.(t.size);
      t.aux2.(0) <- t.aux2.(t.size);
      t.aux3.(0) <- t.aux3.(t.size);
      sift_down t 0
    end;
    v

  let iter f t =
    for i = 0 to t.size - 1 do
      f t.keys.(i) t.vals.(i) t.aux1.(i) t.aux2.(i) t.aux3.(i)
    done
end
