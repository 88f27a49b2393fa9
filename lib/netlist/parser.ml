module Library = Smt_cell.Library

exception Parse_error of string

(* Both passes keep byte offsets only; an error turns its offset into
   [file:line:column], lines counted at each '\n' and columns from 1. *)
let fail_at_offset file text off msg =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to off - 1 do
    if text.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  raise (Parse_error (Printf.sprintf "%s:%d:%d: %s" file !line (off - !bol + 1) msg))

(* --- lexer ---
   The current token is [text.[start .. stop - 1]]; a pragma token runs
   from its [//] to the end of its line.  Tokens carry no payload, so
   reading one allocates nothing. *)

type token = Ident | Lparen | Rparen | Semi | Comma | Dot | Pragma | Eof

type lexer = {
  text : string;
  file : string;
  mutable tok : token;
  mutable start : int;
  mutable stop : int;
}

(* Errors point at the start of the current token, or at the character
   the lexer cannot read. *)
let fail lx msg = fail_at_offset lx.file lx.text lx.start msg

let ident_chars =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '[' | ']' -> '\001'
      | _ -> '\000')

let is_ident_char c = ident_chars.[Char.code c] = '\001'

let ident_end text i =
  let n = String.length text in
  let i = ref i in
  while !i < n && is_ident_char text.[!i] do
    incr i
  done;
  !i

(* A [//] comment whose first word starts with [@] is a pragma; any other
   comment is skipped without being split. *)
let rec advance lx =
  let text = lx.text in
  let n = String.length text in
  let p = ref lx.stop in
  while !p < n && match text.[!p] with ' ' | '\t' | '\r' | '\n' -> true | _ -> false do
    incr p
  done;
  let p = !p in
  lx.start <- p;
  lx.stop <- p + 1;
  if p = n then begin
    lx.tok <- Eof;
    lx.stop <- p
  end
  else
    match text.[p] with
    | '(' -> lx.tok <- Lparen
    | ')' -> lx.tok <- Rparen
    | ';' -> lx.tok <- Semi
    | ',' -> lx.tok <- Comma
    | '.' -> lx.tok <- Dot
    | '/' when p + 1 < n && text.[p + 1] = '/' ->
      let eol = match String.index_from_opt text p '\n' with Some e -> e | None -> n in
      let q = ref (p + 2) in
      while !q < eol && match text.[!q] with ' ' | '\t' | '\r' | '\012' -> true | _ -> false do
        incr q
      done;
      lx.stop <- eol;
      if !q < eol && text.[!q] = '@' then lx.tok <- Pragma else advance lx
    | c when is_ident_char c ->
      lx.tok <- Ident;
      lx.stop <- ident_end text (p + 1)
    | c -> fail lx (Printf.sprintf "unexpected character %C" c)

(* The words of [text.[first .. stop - 1]] split at spaces, in order. *)
let rec words text first stop acc =
  if stop <= first then acc
  else if text.[stop - 1] = ' ' then words text first (stop - 1) acc
  else begin
    let start = ref (stop - 1) in
    while !start > first && text.[!start - 1] <> ' ' do
      decr start
    done;
    words text first !start (String.sub text !start (stop - !start) :: acc)
  end

(* The words of the pragma at [off]: its comment body, trimmed of blanks
   and split at spaces. *)
let pragma_words text off =
  let blank = function ' ' | '\t' | '\r' | '\n' | '\012' -> true | _ -> false in
  let first = ref (off + 2) in
  let stop =
    ref (match String.index_from_opt text off '\n' with Some e -> e | None -> String.length text)
  in
  while !first < !stop && blank text.[!first] do
    incr first
  done;
  while !stop > !first && blank text.[!stop - 1] do
    decr stop
  done;
  words text !first !stop []

(* Does the text at [off] read [s]? *)
let rec reads text off s i =
  i = String.length s || (text.[off + i] = s.[i] && reads text off s (i + 1))

let is_word lx w =
  (match lx.tok with Ident -> true | _ -> false)
  && lx.stop - lx.start = String.length w
  && reads lx.text lx.start w 0

(* The name in [names] that the [len] bytes at [off] spell, or [""]. *)
let rec spelled text off len = function
  | s :: rest ->
    if String.length s = len && reads text off s 0 then s else spelled text off len rest
  | [] -> ""

let expect lx tok what =
  (match (lx.tok, tok) with
  | Lparen, Lparen | Rparen, Rparen | Semi, Semi | Dot, Dot -> ()
  | _ -> fail lx (what ^ " expected"));
  advance lx

(* The offset of the identifier that must come next. *)
let expect_ident lx =
  match lx.tok with
  | Ident ->
    let off = lx.start in
    advance lx;
    off
  | _ -> fail lx "identifier expected"

(* --- first-pass records: growable int arrays of offsets ---
   Monomorphic, unlike [Smt_util.Vec]: an int store needs no write
   barrier, and the first pass makes one per token. *)

type ints = { mutable a : int array; mutable len : int }

let ints capacity = { a = Array.make (max 16 capacity) 0; len = 0 }

let push v x =
  if v.len = Array.length v.a then begin
    let a = Array.make (2 * v.len) 0 in
    Array.blit v.a 0 a 0 v.len;
    v.a <- a
  end;
  v.a.(v.len) <- x;
  v.len <- v.len + 1

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

(* A netlist refusal without its raising function's "Netlist...: " prefix. *)
let refusal m =
  let n = String.length m in
  let i = match String.index_opt m ':' with Some i when i + 2 <= n -> i + 2 | _ -> 0 in
  String.sub m i (n - i)

(* Argument counts of the pragmas. *)
let pragma_arity =
  [ ("@clock", 1); ("@vgnd", 2); ("@domain", 2); ("@member", 2); ("@isolation", 1) ]

let of_string ?(file = "<netlist>") ~lib text =
  let lx = { text; file; tok = Eof; start = 0; stop = 0 } in
  (* First pass: check the grammar and record where each port name,
     statement and pragma starts.  A statement is a declaration
     [-(keyword + 1); name] or an instance [cell; name; pin count] and
     [pin; net] per connection; the flow's netlists take ~7 bytes of text
     per record, so [stmts] rarely grows. *)
  let ports = ints 64 and stmts = ints (String.length text / 6) and pragmas = ints 64 in
  let n_decls = ref 0 and n_insts = ref 0 in
  advance lx;
  while match lx.tok with Pragma -> true | _ -> false do
    push pragmas lx.start;
    advance lx
  done;
  if not (is_word lx "module") then fail lx "module expected";
  advance lx;
  let design = expect_ident lx in
  expect lx Lparen "(";
  let rec port_list () =
    match lx.tok with
    | Rparen -> advance lx
    | Ident -> (
      push ports lx.start;
      advance lx;
      match lx.tok with
      | Comma ->
        advance lx;
        port_list ()
      | Rparen -> advance lx
      | _ -> fail lx ", or ) expected in port list")
    | _ -> fail lx "port name expected"
  in
  port_list ();
  expect lx Semi ";";
  let rec conns count_at =
    expect lx Dot ".";
    push stmts (expect_ident lx);
    expect lx Lparen "(";
    push stmts (expect_ident lx);
    expect lx Rparen ")";
    stmts.a.(count_at) <- stmts.a.(count_at) + 1;
    match lx.tok with
    | Comma ->
      advance lx;
      conns count_at
    | Rparen -> advance lx
    | _ -> fail lx ", or ) expected in connection list"
  in
  (* the lexer stops on [endmodule]; what follows is checked last *)
  let rec body () =
    match lx.tok with
    | Ident when is_word lx "endmodule" -> ()
    | Ident when is_word lx "input" || is_word lx "output" || is_word lx "wire" ->
      push stmts (-(lx.start + 1));
      incr n_decls;
      advance lx;
      push stmts (expect_ident lx);
      expect lx Semi ";";
      body ()
    | Ident ->
      push stmts lx.start;
      incr n_insts;
      advance lx;
      push stmts (expect_ident lx);
      expect lx Lparen "(";
      let count_at = stmts.len in
      push stmts 0;
      (match lx.tok with Rparen -> advance lx | _ -> conns count_at);
      expect lx Semi ";";
      body ()
    | Pragma ->
      push pragmas lx.start;
      advance lx;
      body ()
    | Eof -> fail lx "endmodule expected"
    | Lparen | Rparen | Semi | Comma | Dot -> fail lx "statement expected"
  in
  body ();
  (* Second pass: build the netlist, sized from the first pass's counts.
     Declarations come first, then instances, whose undeclared nets are
     created in order of first use, then pragmas.  What the grammar lets
     through but the netlist refuses (a pin the cell lacks, a second
     driver, a name declared twice, a VGND link to a non-switch, ...) is
     an error at the first token of the statement that asked for it. *)
  let fail_at off msg = fail_at_offset file text off msg in
  let ident off = String.sub text off (ident_end text off - off) in
  let nl = Netlist.create ~nets:!n_decls ~insts:!n_insts ~name:(ident design) ~lib () in
  (* the record after the one at [k] *)
  let next k = if stmts.a.(k) < 0 then k + 2 else k + 3 + (2 * stmts.a.(k + 2)) in
  let at = ref 0 in
  (try
     let k = ref 0 in
     while !k < stmts.len do
       if stmts.a.(!k) < 0 then begin
         let kw = -stmts.a.(!k) - 1 in
         at := kw;
         let name = ident stmts.a.(!k + 1) in
         ignore
           (match text.[kw] with
           | 'i' -> Netlist.add_input nl name
           | 'o' -> Netlist.add_output nl name
           | _ -> Netlist.add_net nl name)
       end;
       k := next !k
     done;
     (* each distinct cell name is resolved once; pin names are few, so
        each is copied once and found again by comparing in place *)
     let cells = Hashtbl.create 64 and pin_names = ref [] in
     let cell_at off =
       let name = ident off in
       match Hashtbl.find_opt cells name with
       | Some c -> c
       | None ->
         let c = resolve_cell ~fail:(fail_at off) lib name in
         Hashtbl.add cells name c;
         c
     in
     let pin_at off =
       let len = ident_end text off - off in
       match spelled text off len !pin_names with
       | "" ->
         let s = String.sub text off len in
         pin_names := s :: !pin_names;
         s
       | s -> s
     in
     let net_at off =
       let name = ident off in
       match Netlist.find_net nl name with Some nid -> nid | None -> Netlist.add_net nl name
     in
     let k = ref 0 in
     while !k < stmts.len do
       let cell_off = stmts.a.(!k) in
       if cell_off >= 0 then begin
         let name_off = stmts.a.(!k + 1) and npins = stmts.a.(!k + 2) and first = !k + 3 in
         at := cell_off;
         let cell = cell_at cell_off in
         let rec pins i =
           if i = npins then []
           else
             let pin = pin_at stmts.a.(first + (2 * i)) in
             let net = net_at stmts.a.(first + (2 * i) + 1) in
             (pin, net) :: pins (i + 1)
         in
         ignore (Netlist.add_inst nl ~name:(ident name_off) cell (pins 0))
       end;
       k := next !k
     done
   with Invalid_argument m -> fail_at !at (refusal m));
  (* Pragmas apply in order.  The checks the format has always made raise
     where they fail; the ones added since (an unknown pragma, a wrong
     word count, [@clock] on an unknown net, and the port list below)
     raise only after them, so input refused before keeps its error. *)
  let deferred = ref None in
  let defer off msg = if Option.is_none !deferred then deferred := Some (off, msg) in
  for k = 0 to pragmas.len - 1 do
    let off = pragmas.a.(k) in
    let inst_at what name =
      match Netlist.find_inst nl name with
      | Some i -> i
      | None -> fail_at off (Printf.sprintf "%s refers to unknown instance %s" what name)
    in
    try
      match pragma_words text off with
      | [ "@clock"; net ] -> (
        match Netlist.find_net nl net with
        | Some nid -> if not (Netlist.is_clock_net nl nid) then Netlist.mark_clock nl nid
        | None -> defer off (Printf.sprintf "@clock: unknown net %s" net))
      | [ "@vgnd"; inst; sw ] ->
        let sw = inst_at "@vgnd" sw in
        Netlist.set_vgnd_switch nl (inst_at "@vgnd" inst) (Some sw)
      | [ "@domain"; dom; "-" ] -> Netlist.add_domain nl ~name:dom ~mte:None
      | [ "@domain"; dom; net ] -> (
        match Netlist.find_net nl net with
        | Some _ as mte -> Netlist.add_domain nl ~name:dom ~mte
        | None -> fail_at off (Printf.sprintf "@domain %s: unknown net %s" dom net))
      | [ "@member"; inst; dom ] -> Netlist.set_inst_domain nl (inst_at "@member" inst) (Some dom)
      | [ "@isolation"; inst ] -> Netlist.set_isolation nl (inst_at "@isolation" inst) true
      | word :: args -> (
        match List.assoc_opt word pragma_arity with
        | Some n ->
          defer off
            (Printf.sprintf "%s takes %d argument%s, got %d" word n
               (if n = 1 then "" else "s")
               (List.length args))
        | None -> defer off ("unknown pragma " ^ word))
      | [] -> ()
    with Invalid_argument m -> fail_at off (refusal m)
  done;
  (* The port list names each input and output once, and nothing else. *)
  let listed = Hashtbl.create (max 16 ports.len) in
  for k = 0 to ports.len - 1 do
    let off = ports.a.(k) in
    let name = ident off in
    if Hashtbl.mem listed name then fail_at off (Printf.sprintf "port %s is listed twice" name);
    Hashtbl.add listed name ();
    match Netlist.find_net nl name with
    | Some nid when Netlist.is_pi nl nid || Netlist.is_po nl nid -> ()
    | Some _ | None ->
      fail_at off (Printf.sprintf "port %s is not declared as input or output" name)
  done;
  let k = ref 0 in
  while !k < stmts.len do
    (if stmts.a.(!k) < 0 then
       let kw = -stmts.a.(!k) - 1 in
       match text.[kw] with
       | ('i' | 'o') as dir ->
         let name = ident stmts.a.(!k + 1) in
         if not (Hashtbl.mem listed name) then
           fail_at kw
             (Printf.sprintf "%s %s is missing from the port list"
                (if dir = 'i' then "input" else "output")
                name)
       | _ -> ());
    k := next !k
  done;
  (match !deferred with Some (off, msg) -> fail_at off msg | None -> ());
  (* Only blanks and ordinary comments may follow [endmodule], where the
     lexer still stands; a token, a pragma or a character no token starts
     with is refused at its first byte. *)
  (match advance lx with
  | () -> ( match lx.tok with Eof -> () | _ -> fail lx "text after endmodule")
  | exception Parse_error _ -> fail lx "text after endmodule");
  nl

let of_file ~lib path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      of_string ~file:path ~lib text)
