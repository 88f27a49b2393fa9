let buf_add_inst nl b iid =
  let cell = Netlist.cell nl iid in
  let pins =
    Netlist.conns nl iid
    |> List.map (fun (pin, nid) -> Printf.sprintf ".%s(%s)" pin (Netlist.net_name nl nid))
  in
  Buffer.add_string b
    (Printf.sprintf "  %s %s (%s);\n" cell.Smt_cell.Cell.name (Netlist.inst_name nl iid)
       (String.concat ", " pins))

let to_string nl =
  let b = Buffer.create 4096 in
  let ins = Netlist.inputs nl and outs = Netlist.outputs nl in
  let port_names = List.map fst ins @ List.map fst outs in
  Buffer.add_string b
    (Printf.sprintf "module %s (%s);\n" (Netlist.design_name nl)
       (String.concat ", " port_names));
  List.iter (fun (name, _) -> Buffer.add_string b (Printf.sprintf "  input %s;\n" name)) ins;
  List.iter (fun (name, _) -> Buffer.add_string b (Printf.sprintf "  output %s;\n" name)) outs;
  let ports = Hashtbl.create (List.length port_names) in
  List.iter (fun name -> Hashtbl.replace ports name ()) port_names;
  Netlist.iter_nets nl (fun nid ->
      let name = Netlist.net_name nl nid in
      if not (Hashtbl.mem ports name) then Buffer.add_string b (Printf.sprintf "  wire %s;\n" name));
  List.iter
    (fun (name, nid) ->
      if Netlist.is_clock_net nl nid then
        Buffer.add_string b (Printf.sprintf "  // @clock %s\n" name))
    ins;
  Netlist.iter_insts nl (fun iid -> buf_add_inst nl b iid);
  Netlist.iter_insts nl (fun iid ->
      match Netlist.vgnd_switch nl iid with
      | None -> ()
      | Some sw ->
        Buffer.add_string b
          (Printf.sprintf "  // @vgnd %s %s\n" (Netlist.inst_name nl iid)
             (Netlist.inst_name nl sw)));
  List.iter
    (fun (dom, mte) ->
      Buffer.add_string b
        (Printf.sprintf "  // @domain %s %s\n" dom
           (match mte with Some nid -> Netlist.net_name nl nid | None -> "-")))
    (Netlist.domains nl);
  Netlist.iter_insts nl (fun iid ->
      match Netlist.inst_domain nl iid with
      | None -> ()
      | Some dom ->
        Buffer.add_string b
          (Printf.sprintf "  // @member %s %s\n" (Netlist.inst_name nl iid) dom));
  Netlist.iter_insts nl (fun iid ->
      if Netlist.is_isolation nl iid then
        Buffer.add_string b
          (Printf.sprintf "  // @isolation %s\n" (Netlist.inst_name nl iid)));
  Buffer.add_string b "endmodule\n";
  Buffer.contents b

let to_file nl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string nl))
