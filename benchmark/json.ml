(* A minimal JSON value, printer and parser: enough to read BENCHMARK.json,
   the committed reference values and result files, and to print one
   result object per run.  Numbers are printed with all 17 significant
   digits so a measured value reads back bit for bit. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num x when Float.is_finite x -> Buffer.add_string buf (number x)
  | Num _ -> Buffer.add_string buf "null"
  | Str s -> escape buf s
  | Arr l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf v)
        l;
      Buffer.add_char buf ']'
  | Obj l ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          escape buf k;
          Buffer.add_string buf ": ";
          write buf v)
        l;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip () =
    if !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) then begin
      incr pos;
      skip ()
    end
  in
  let expect c =
    skip ();
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              Buffer.add_utf_8_uchar buf (Uchar.of_int code)
          | c -> Buffer.add_char buf c);
          go ()
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = '}' then (incr pos; Obj [])
        else
          let rec members acc =
            let k = string () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; members ((k, v) :: acc))
            else (expect '}'; Obj (List.rev ((k, v) :: acc)))
          in
          members []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && s.[!pos] = ']' then (incr pos; Arr [])
        else
          let rec elems acc =
            let v = value () in
            skip ();
            if !pos < n && s.[!pos] = ',' then (incr pos; elems (v :: acc))
            else (expect ']'; Arr (List.rev (v :: acc)))
          in
          elems []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
        let start = !pos in
        let numeric = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
        while !pos < n && numeric s.[!pos] do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some x when !pos > start -> Num x
        | _ -> fail "bad number")
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing bytes";
  v

let member k = function
  | Obj l -> ( match List.assoc_opt k l with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr l -> l | _ -> []
let to_num = function Num x -> x | _ -> Float.nan
let to_str = function Str s -> s | _ -> ""
let to_obj = function Obj l -> l | _ -> []
