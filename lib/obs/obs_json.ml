(* Minimal JSON emission, parsing and decoding shared by Trace, Metrics,
   Snapshot and every reader of the repo's JSON records.  Report_json
   builds on the same emitters for flow reports. *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let str s = Printf.sprintf "\"%s\"" (escape s)

let num f = if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let num_exact f =
  if Float.is_finite f then
    (* %.17g round-trips every double, so snapshot files compare exactly *)
    let s = Printf.sprintf "%.17g" f in
    (* prefer the shortest representation that still round-trips *)
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else s
  else "null"

let boolean b = if b then "true" else "false"

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

let arr items = "[" ^ String.concat "," items ^ "]"

let to_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

(* Stage, fsync, rename.  [Unix.write_substring] loops until every byte
   is written or raises; on any failure the temp file is removed. *)
let write_durable path contents =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_CREAT; Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  match
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        ignore (Unix.write_substring fd contents 0 (String.length contents));
        Unix.fsync fd);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      incr pos;
      skip_ws ()
    | _ -> ()
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' ->
          incr pos;
          Buffer.contents b
        | '\\' ->
          incr pos;
          if !pos >= n then fail "dangling escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
            if !pos + 4 >= n then fail "truncated \\u escape";
            (* exactly four hex digits *)
            let hex c =
              match c with
              | '0' .. '9' -> Char.code c - Char.code '0'
              | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
              | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
              | _ -> fail "bad \\u escape"
            in
            let code = ref 0 in
            for i = 1 to 4 do
              code := (!code * 16) + hex s.[!pos + i]
            done;
            pos := !pos + 4;
            if !code < 128 then Buffer.add_char b (Char.chr !code)
              (* non-ASCII escapes are lossy; the library never emits them *)
            else Buffer.add_char b '?'
          | _ -> fail "unknown escape");
          incr pos;
          go ()
        | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> parse_obj ()
    | Some '[' -> parse_arr ()
    | Some '"' -> Str (parse_string ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end of input"
  and lit word v =
    let k = String.length word in
    if !pos + k <= n && String.sub s !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail ("expected " ^ word)
  (* JSON's number grammar: an optional minus, 0 or digits not starting
     with 0, an optional point with digits, an optional e or E with an
     optional sign and digits.  So no leading + or zeros, and no point
     without digits on both sides. *)
  and number () =
    let start = !pos in
    let digit () = match peek () with Some '0' .. '9' -> true | _ -> false in
    let digits () =
      if not (digit ()) then fail "bad number";
      while digit () do
        incr pos
      done
    in
    if peek () = Some '-' then incr pos;
    (match peek () with
    | Some '0' ->
      incr pos;
      if digit () then fail "bad number"
    | _ -> digits ());
    if peek () = Some '.' then begin
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      incr pos;
      (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
      digits ()
    | _ -> ());
    Num (float_of_string (String.sub s start (!pos - start)))
  and parse_arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      incr pos;
      Arr []
    end
    else begin
      let items = ref [ value () ] in
      skip_ws ();
      while peek () = Some ',' do
        incr pos;
        items := value () :: !items;
        skip_ws ()
      done;
      expect ']';
      Arr (List.rev !items)
    end
  and parse_obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      incr pos;
      Obj []
    end
    else begin
      let parse_field () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = value () in
        (k, v)
      in
      let fields = ref [ parse_field () ] in
      skip_ws ();
      while peek () = Some ',' do
        incr pos;
        fields := parse_field () :: !fields;
        skip_ws ()
      done;
      expect '}';
      Obj (List.rev !fields)
    end
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s = match parse_exn s with v -> Ok v | exception Parse_error e -> Error e

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None

let to_str = function Str s -> Some s | _ -> None

(* The whole read sits inside the one handler: [open_in] succeeds on a
   directory, and the error only surfaces at the first read, as a bare
   "Is a directory" that the path must be added to. *)
let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e ->
    Error (if String.starts_with ~prefix:path e then e else path ^ ": " ^ e)
  | contents -> Ok contents

let of_file path = Result.bind (read_file path) parse

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

module Decode = struct
  type json = t
  type 'a t = json -> 'a
  type step = Key of string | Index of int

  (* The path is assembled while a failure unwinds, innermost step
     first, so a decode that succeeds never builds it. *)
  exception Fail of step list * string

  let fail msg = raise (Fail ([], msg))
  let in_key k d v = try d v with Fail (p, m) -> raise (Fail (Key k :: p, m))
  let in_index i d v = try d v with Fail (p, m) -> raise (Fail (Index i :: p, m))

  (* [null] is the emitters' encoding of a non-finite float. *)
  let number = function Num f -> f | Null -> Float.nan | _ -> fail "not a number"

  (* Below 2^53 each integer has a double of its own; from 2^53 on the
     text of a neighbour (2^53 + 1) parses to the same double and would
     read back silently as another value. *)
  let int = function
    | Num f when Float.is_integer f ->
      if Float.abs f < 0x1p53 then int_of_float f else fail "integer out of range"
    | _ -> fail "not an integer"

  let string = function Str s -> s | _ -> fail "not a string"

  let schema expected v =
    let n = int v in
    if n = expected then n else fail (Printf.sprintf "schema version %d, expected %d" n expected)

  let list d = function
    | Arr xs -> List.mapi (fun i x -> in_index i d x) xs
    | _ -> fail "not an array"

  let first d = function
    | Arr [] -> None
    | Arr (x :: _) -> Some (in_index 0 d x)
    | _ -> fail "not an array"

  let fields = function Obj fs -> fs | _ -> fail "not an object"
  let dict d v = List.map (fun (k, x) -> (k, in_key k d x)) (fields v)

  let field_opt name d v =
    match List.assoc_opt name (fields v) with
    | Some x -> Some (in_key name d x)
    | None -> None

  let field name d v =
    match field_opt name d v with Some x -> x | None -> raise (Fail ([ Key name ], "missing"))

  let path steps =
    let b = Buffer.create 32 in
    Buffer.add_char b '$';
    List.iter
      (function
        | Key k ->
          Buffer.add_char b '.';
          Buffer.add_string b k
        | Index i -> Printf.bprintf b "[%d]" i)
      steps;
    Buffer.contents b

  let decode ~source d v =
    match d v with
    | x -> Ok x
    | exception Fail (p, m) -> Error (Printf.sprintf "%s: %s: %s" source (path p) m)

  let decode_string ~source d s =
    match parse_exn s with
    | v -> decode ~source d v
    | exception Parse_error e -> Error (Printf.sprintf "%s: $: %s" source e)

  let decode_file d file = Result.bind (read_file file) (decode_string ~source:file d)
end
