type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Written plainly with [Printf.sprintf] ([%.0f], then [%.15g] and
   [%.17g]), the rule makes encoding a JSONL trace event more than
   twice as slow as a fixed [%.12g] was.  Three shortcuts print the same strings for less:
   integers (half the numbers in a fuzz trace) go through
   [string_of_int]; floats go through the primitive behind Printf's [%g],
   without the format interpreter; and the [%.15g] attempt is skipped
   when it cannot read back (70% of the other numbers; it reads back for
   only 6%). *)
external format_float : string -> float -> string = "caml_format_float"

(* [%.15g] can only read back as a normal [x] when the last two of
   [%.17g]'s 17 significant digits are within 11 of a multiple of 100:
   the 15-digit decimal is such a multiple (in units of the 17th digit)
   and lies within half an ulp of [x], and half an ulp is below
   [2^-53 |x|], under 11.1 of those units. *)
let beyond_15_digits s =
  let stop = Option.value (String.index_opt s 'e') ~default:(String.length s) in
  let digits = ref 0 and last2 = ref 0 in
  for i = 0 to stop - 1 do
    match s.[i] with
    | '0' when !digits = 0 -> ()
    | '0' .. '9' as c ->
        incr digits;
        last2 := ((!last2 * 10) + Char.code c - 48) mod 100
    | _ -> ()
  done;
  !digits = 17 && !last2 > 11 && !last2 < 89

let num x =
  if Float.is_integer x && Float.abs x < 1e15 then
    if x = 0.0 && Float.sign_bit x then "-0" else string_of_int (int_of_float x)
  else
    let s17 = format_float "%.17g" x in
    if Float.abs x >= Float.min_float && beyond_15_digits s17 then s17
    else
      let s15 = format_float "%.15g" x in
      if float_of_string s15 = x then s15 else s17

(* --- writer --- *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x -> Buffer.add_string buf (num x)
  | Str s -> add_string buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  write buf v;
  Buffer.contents buf

(* --- reader: recursive descent over the RFC 8259 grammar --- *)

exception Bad

type reader = { s : string; mutable pos : int }

let peek r = if r.pos < String.length r.s then r.s.[r.pos] else raise Bad
let advance r = r.pos <- r.pos + 1

let rec skip_ws r =
  if r.pos < String.length r.s then
    match r.s.[r.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
        advance r;
        skip_ws r
    | _ -> ()

let expect r c =
  skip_ws r;
  if peek r <> c then raise Bad;
  advance r

let literal r word v =
  let l = String.length word in
  if r.pos + l > String.length r.s || String.sub r.s r.pos l <> word then raise Bad;
  r.pos <- r.pos + l;
  v

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> raise Bad

(* [\u] is accepted for ASCII only, the range the writer escapes. *)
let str r =
  expect r '"';
  let b = Buffer.create 16 in
  let rec loop () =
    let c = peek r in
    advance r;
    match c with
    | '"' -> Buffer.contents b
    | '\\' ->
        let e = peek r in
        advance r;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
            if r.pos + 4 > String.length r.s then raise Bad;
            let hex = String.sub r.s r.pos 4 in
            let code = String.fold_left (fun acc c -> (acc * 16) + hex_digit c) 0 hex in
            if code >= 0x80 then raise Bad;
            r.pos <- r.pos + 4;
            Buffer.add_char b (Char.chr code)
        | _ -> raise Bad);
        loop ()
    | c when Char.code c < 0x20 -> raise Bad
    | c ->
        Buffer.add_char b c;
        loop ()
  in
  loop ()

let digits r =
  let start = r.pos in
  while r.pos < String.length r.s && r.s.[r.pos] >= '0' && r.s.[r.pos] <= '9' do
    advance r
  done;
  if r.pos = start then raise Bad

let number r =
  let start = r.pos in
  if peek r = '-' then advance r;
  if peek r = '0' then advance r else digits r;
  if r.pos < String.length r.s && r.s.[r.pos] = '.' then begin
    advance r;
    digits r
  end;
  if r.pos < String.length r.s && (r.s.[r.pos] = 'e' || r.s.[r.pos] = 'E') then begin
    advance r;
    if r.pos < String.length r.s && (r.s.[r.pos] = '+' || r.s.[r.pos] = '-') then
      advance r;
    digits r
  end;
  Num (float_of_string (String.sub r.s start (r.pos - start)))

let rec value r =
  skip_ws r;
  match peek r with
  | '"' -> Str (str r)
  | '{' ->
      advance r;
      skip_ws r;
      if peek r = '}' then begin
        advance r;
        Obj []
      end
      else Obj (members r [])
  | '[' ->
      advance r;
      skip_ws r;
      if peek r = ']' then begin
        advance r;
        Arr []
      end
      else Arr (elements r [])
  | 't' -> literal r "true" (Bool true)
  | 'f' -> literal r "false" (Bool false)
  | 'n' -> literal r "null" Null
  | _ -> number r

and members r acc =
  let k = str r in
  expect r ':';
  let acc = (k, value r) :: acc in
  skip_ws r;
  match peek r with
  | ',' ->
      advance r;
      members r acc
  | '}' ->
      advance r;
      List.rev acc
  | _ -> raise Bad

and elements r acc =
  let acc = value r :: acc in
  skip_ws r;
  match peek r with
  | ',' ->
      advance r;
      elements r acc
  | ']' ->
      advance r;
      List.rev acc
  | _ -> raise Bad

let of_string s =
  let r = { s; pos = 0 } in
  match
    let v = value r in
    skip_ws r;
    if r.pos <> String.length s then raise Bad;
    v
  with
  | v -> Some v
  | exception Bad -> None

let field k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
