module Library = Smt_cell.Library

exception Parse_error of string

type token =
  | Ident of string
  | Lparen
  | Rparen
  | Semi
  | Comma
  | Dot
  | Directive of string list  (** words of a [// @...] comment *)
  | Eof

type lexer = {
  text : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the current line's first character *)
  mutable tok_line : int;  (** position of the last token handed out *)
  mutable tok_col : int;
  mutable peeked : (token * int * int) option;
}

let fail_at file line col msg =
  raise (Parse_error (Printf.sprintf "%s:%d:%d: %s" file line col msg))

(* Errors point at the start of the offending token (or, while lexing, the
   current character), as file:line:column. *)
let fail lx msg = fail_at lx.file lx.tok_line lx.tok_col msg

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  || c = '[' || c = ']'

let mark lx =
  lx.tok_line <- lx.line;
  lx.tok_col <- lx.pos - lx.bol + 1

let rec lex_token lx =
  mark lx;
  if lx.pos >= String.length lx.text then Eof
  else
    let c = lx.text.[lx.pos] in
    match c with
    | ' ' | '\t' | '\r' ->
      lx.pos <- lx.pos + 1;
      lex_token lx
    | '\n' ->
      lx.pos <- lx.pos + 1;
      lx.line <- lx.line + 1;
      lx.bol <- lx.pos;
      lex_token lx
    | '/' when lx.pos + 1 < String.length lx.text && lx.text.[lx.pos + 1] = '/' ->
      let eol =
        match String.index_from_opt lx.text lx.pos '\n' with
        | Some i -> i
        | None -> String.length lx.text
      in
      let body = String.sub lx.text (lx.pos + 2) (eol - lx.pos - 2) in
      lx.pos <- eol;
      let words =
        String.split_on_char ' ' (String.trim body) |> List.filter (fun s -> s <> "")
      in
      (match words with
      | w :: _ when String.length w > 0 && w.[0] = '@' -> Directive words
      | _ -> lex_token lx)
    | '(' -> lx.pos <- lx.pos + 1; Lparen
    | ')' -> lx.pos <- lx.pos + 1; Rparen
    | ';' -> lx.pos <- lx.pos + 1; Semi
    | ',' -> lx.pos <- lx.pos + 1; Comma
    | '.' -> lx.pos <- lx.pos + 1; Dot
    | c when is_ident_char c ->
      let start = lx.pos in
      while lx.pos < String.length lx.text && is_ident_char lx.text.[lx.pos] do
        lx.pos <- lx.pos + 1
      done;
      Ident (String.sub lx.text start (lx.pos - start))
    | c -> fail lx (Printf.sprintf "unexpected character %C" c)

let next lx =
  match lx.peeked with
  | Some (t, l, c) ->
    lx.peeked <- None;
    lx.tok_line <- l;
    lx.tok_col <- c;
    t
  | None -> lex_token lx

let peek lx =
  match lx.peeked with
  | Some (t, _, _) -> t
  | None ->
    let t = lex_token lx in
    lx.peeked <- Some (t, lx.tok_line, lx.tok_col);
    t

let expect_ident lx =
  match next lx with Ident s -> s | _ -> fail lx "identifier expected"

let expect lx tok what =
  let got = next lx in
  if got <> tok then fail lx (what ^ " expected")

(* Sleep switches are synthesized per width, so "SW_W4p2" may not pre-exist
   in the library. *)
let resolve_cell ~fail lib name =
  match Library.find_opt lib name with
  | Some c -> c
  | None ->
    if String.length name > 4 && String.sub name 0 4 = "SW_W" then begin
      let spec = String.sub name 4 (String.length name - 4) in
      match String.split_on_char 'p' spec with
      | [ units; tenths ] -> (
        match (int_of_string_opt units, int_of_string_opt tenths) with
        | Some u, Some d -> Library.switch lib ~width:(float_of_int u +. (float_of_int d /. 10.0))
        | _ -> fail (Printf.sprintf "bad switch cell name %s" name))
      | _ -> fail (Printf.sprintf "bad switch cell name %s" name)
    end
    else fail (Printf.sprintf "unknown cell %s" name)

type decl = Decl_input | Decl_output | Decl_wire

let of_string ?(file = "<netlist>") ~lib text =
  let lx =
    { text; file; pos = 0; line = 1; bol = 0; tok_line = 1; tok_col = 1; peeked = None }
  in
  let rec skip_directives acc =
    match peek lx with
    | Directive d ->
      ignore (next lx);
      skip_directives (d :: acc)
    | _ -> List.rev acc
  in
  ignore (skip_directives []);
  (match next lx with
  | Ident "module" -> ()
  | _ -> fail lx "module expected");
  let design = expect_ident lx in
  expect lx Lparen "(";
  let rec ports acc =
    match next lx with
    | Rparen -> List.rev acc
    | Ident name -> (
      match next lx with
      | Comma -> ports (name :: acc)
      | Rparen -> List.rev (name :: acc)
      | _ -> fail lx ", or ) expected in port list")
    | _ -> fail lx "port name expected"
  in
  let _port_list = ports [] in
  expect lx Semi ";";
  let nl = Netlist.create ~name:design ~lib in
  (* First pass over the body: collect declarations, instances and
     directives, each with the line and column of its first token (kept
     unboxed: a large netlist has tens of thousands of them). *)
  let decls = ref [] and insts = ref [] and directives = ref [] in
  let parse_conn () =
    expect lx Dot ".";
    let pin = expect_ident lx in
    expect lx Lparen "(";
    let net = expect_ident lx in
    expect lx Rparen ")";
    (pin, net)
  in
  let decl d =
    let line = lx.tok_line and col = lx.tok_col in
    decls := (d, expect_ident lx, line, col) :: !decls;
    expect lx Semi ";"
  in
  let rec body () =
    match next lx with
    | Ident "endmodule" -> ()
    | Ident "input" -> decl Decl_input; body ()
    | Ident "output" -> decl Decl_output; body ()
    | Ident "wire" -> decl Decl_wire; body ()
    | Ident cell_name ->
      let line = lx.tok_line and col = lx.tok_col in
      let inst_name = expect_ident lx in
      expect lx Lparen "(";
      let rec conns acc =
        let c = parse_conn () in
        match next lx with
        | Comma -> conns (c :: acc)
        | Rparen -> List.rev (c :: acc)
        | _ -> fail lx ", or ) expected in connection list"
      in
      let pins = if peek lx = Rparen then (ignore (next lx); []) else conns [] in
      expect lx Semi ";";
      insts := (cell_name, inst_name, pins, line, col) :: !insts;
      body ()
    | Directive d ->
      directives := (d, lx.tok_line, lx.tok_col) :: !directives;
      body ()
    | Eof -> fail lx "endmodule expected"
    | Lparen | Rparen | Semi | Comma | Dot -> fail lx "statement expected"
  in
  body ();
  let decls = List.rev !decls and insts = List.rev !insts and directives = List.rev !directives in
  (* Second pass: build the netlist.  What the grammar lets through but
     the netlist refuses (a pin the cell lacks, a second driver, a name
     declared twice, a VGND link to a non-switch, ...) is a parse error at
     the statement that asked for it. *)
  let fail_at line col msg = fail_at file line col msg in
  let at line col f =
    try f ()
    with Invalid_argument m ->
      (* drop the raising function's "Netlist...: " prefix *)
      let n = String.length m in
      let i = match String.index_opt m ':' with Some i when i + 2 <= n -> i + 2 | _ -> 0 in
      fail_at line col (String.sub m i (n - i))
  in
  let clock_nets =
    List.filter_map (function [ "@clock"; n ], _, _ -> Some n | _ -> None) directives
  in
  let is_clock n = List.mem n clock_nets in
  List.iter
    (fun (d, name, line, col) ->
      at line col (fun () ->
          match d with
          | Decl_input -> ignore (Netlist.add_input ~clock:(is_clock name) nl name)
          | Decl_output -> ignore (Netlist.add_output nl name)
          | Decl_wire -> ignore (Netlist.add_net nl name)))
    decls;
  let net_of name =
    match Netlist.find_net nl name with
    | Some nid -> nid
    | None -> Netlist.add_net nl name
  in
  List.iter
    (fun (cell_name, inst_name, pins, line, col) ->
      at line col (fun () ->
          let cell = resolve_cell ~fail:(fail_at line col) lib cell_name in
          let pins = List.map (fun (p, n) -> (p, net_of n)) pins in
          ignore (Netlist.add_inst nl ~name:inst_name cell pins)))
    insts;
  List.iter
    (fun (d, line, col) ->
      let inst_at what name =
        match Netlist.find_inst nl name with
        | Some i -> i
        | None -> fail_at line col (Printf.sprintf "%s refers to unknown instance %s" what name)
      in
      at line col (fun () ->
          match d with
          | [ "@vgnd"; inst; sw ] ->
            Netlist.set_vgnd_switch nl (inst_at "@vgnd" inst) (Some (inst_at "@vgnd" sw))
          | [ "@domain"; dom; "-" ] -> Netlist.add_domain nl ~name:dom ~mte:None
          | [ "@domain"; dom; net ] -> (
            match Netlist.find_net nl net with
            | Some _ as mte -> Netlist.add_domain nl ~name:dom ~mte
            | None -> fail_at line col (Printf.sprintf "@domain %s: unknown net %s" dom net))
          | [ "@member"; inst; dom ] ->
            Netlist.set_inst_domain nl (inst_at "@member" inst) (Some dom)
          | [ "@isolation"; inst ] ->
            Netlist.set_isolation nl (inst_at "@isolation" inst) true
          | _ -> ()))
    directives;
  nl

let of_file ~lib path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      of_string ~file:path ~lib text)
