(* Every line is appended straight into one buffer sized from the netlist. *)

let rec add_names b sep = function
  | [] -> ()
  | (name, _) :: rest ->
    Buffer.add_string b sep;
    Buffer.add_string b name;
    add_names b ", " rest

let rec add_pins b nl sep = function
  | [] -> ()
  | (pin, nid) :: rest ->
    Buffer.add_string b sep;
    Buffer.add_char b '.';
    Buffer.add_string b pin;
    Buffer.add_char b '(';
    Buffer.add_string b (Netlist.net_name nl nid);
    Buffer.add_char b ')';
    add_pins b nl ", " rest

(* [  <keyword> <name>;] *)
let add_decl b keyword name =
  Buffer.add_string b "  ";
  Buffer.add_string b keyword;
  Buffer.add_char b ' ';
  Buffer.add_string b name;
  Buffer.add_string b ";\n"

(* [  // @<pragma> <args>] *)
let add_pragma b pragma args =
  Buffer.add_string b "  // @";
  Buffer.add_string b pragma;
  List.iter
    (fun a ->
      Buffer.add_char b ' ';
      Buffer.add_string b a)
    args;
  Buffer.add_char b '\n'

let is_port nl nid = Netlist.is_pi nl nid || Netlist.is_po nl nid

let to_string nl =
  (* the flow's products take ~45 bytes per net and instance *)
  let b = Buffer.create (4096 + (48 * (Netlist.net_count nl + Netlist.inst_count nl))) in
  let ins = Netlist.inputs nl and outs = Netlist.outputs nl in
  Buffer.add_string b "module ";
  Buffer.add_string b (Netlist.design_name nl);
  Buffer.add_string b " (";
  add_names b "" (ins @ outs);
  Buffer.add_string b ");\n";
  List.iter (fun (name, _) -> add_decl b "input" name) ins;
  List.iter (fun (name, _) -> add_decl b "output" name) outs;
  Netlist.iter_nets nl (fun nid ->
      if not (is_port nl nid) then add_decl b "wire" (Netlist.net_name nl nid));
  (* clock marks in declaration order: inputs, outputs, then wires *)
  let clock (name, nid) = if Netlist.is_clock_net nl nid then add_pragma b "clock" [ name ] in
  List.iter clock ins;
  List.iter clock outs;
  Netlist.iter_nets nl (fun nid ->
      if not (is_port nl nid) then clock (Netlist.net_name nl nid, nid));
  Netlist.iter_insts nl (fun iid ->
      Buffer.add_string b "  ";
      Buffer.add_string b (Netlist.cell nl iid).Smt_cell.Cell.name;
      Buffer.add_char b ' ';
      Buffer.add_string b (Netlist.inst_name nl iid);
      Buffer.add_string b " (";
      add_pins b nl "" (Netlist.conns nl iid);
      Buffer.add_string b ");\n");
  Netlist.iter_insts nl (fun iid ->
      match Netlist.vgnd_switch nl iid with
      | None -> ()
      | Some sw -> add_pragma b "vgnd" [ Netlist.inst_name nl iid; Netlist.inst_name nl sw ]);
  List.iter
    (fun (dom, mte) ->
      add_pragma b "domain"
        [ dom; (match mte with Some nid -> Netlist.net_name nl nid | None -> "-") ])
    (Netlist.domains nl);
  Netlist.iter_insts nl (fun iid ->
      match Netlist.inst_domain nl iid with
      | None -> ()
      | Some dom -> add_pragma b "member" [ Netlist.inst_name nl iid; dom ]);
  Netlist.iter_insts nl (fun iid ->
      if Netlist.is_isolation nl iid then add_pragma b "isolation" [ Netlist.inst_name nl iid ]);
  Buffer.add_string b "endmodule\n";
  Buffer.contents b

let to_file nl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string nl))
