type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.12g" f in
    let s' = Printf.sprintf "%.17g" f in
    if float_of_string s = f then s
    else if Float.is_integer f && not (String.contains s' 'e') then
      (* an integral float below 1e17 prints as bare digits, which the
         parser would read back as an [Int] *)
      s' ^ ".0"
    else s'

let sort_fields fields =
  List.sort (fun (a, _) (b, _) -> String.compare a b) fields

let rec write ~indent ~level buf j =
  let nl pad =
    if indent then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (2 * pad) ' ')
    end
  in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        write ~indent ~level:(level + 1) buf item)
      items;
    nl level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape k);
        Buffer.add_string buf (if indent then "\": " else "\":");
        write ~indent ~level:(level + 1) buf v)
      (sort_fields fields);
    nl level;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write ~indent:false ~level:0 buf j;
  Buffer.contents buf

let to_string_hum j =
  let buf = Buffer.create 256 in
  write ~indent:true ~level:0 buf j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---- parser ---- *)

exception Parse_error of int * string

(* Deep enough for every document this project writes (reports nest about
   six levels); shallow enough that a hostile frame of brackets is
   refused after [max_depth] of them. *)
let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some '"' -> Buffer.add_char buf '"'; advance (); loop ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance (); loop ()
        | Some '/' -> Buffer.add_char buf '/'; advance (); loop ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance (); loop ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance (); loop ()
        | Some 't' -> Buffer.add_char buf '\t'; advance (); loop ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance (); loop ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance (); loop ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          let code =
            try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
          in
          pos := !pos + 4;
          (* we only ever emit \u00xx for control bytes *)
          if code < 256 then Buffer.add_char buf (Char.chr code)
          else fail "unsupported \\u escape above 0xff";
          loop ()
        | _ -> fail "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if text = "" then fail "expected number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" text))
  in
  (* [depth] counts the containers open around the value: a document
     nested past [max_depth] is refused before the recursion can cost
     more than the input's length *)
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('[' | '{') when depth >= max_depth ->
      fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value (depth + 1) ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          items := parse_value (depth + 1) :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after document";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* ---- decoding helpers ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let str = function Str s -> Some s | _ -> None
let int = function Int i -> Some i | _ -> None
let bool = function Bool b -> Some b | _ -> None
let list = function List l -> Some l | _ -> None
