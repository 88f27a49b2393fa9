let merge ~name blocks =
  (match blocks with [] -> invalid_arg "Compose.merge: no blocks" | _ -> ());
  let prefixes = List.map fst blocks in
  if List.exists (fun p -> String.length p = 0) prefixes then
    invalid_arg "Compose.merge: empty prefix";
  if List.length (List.sort_uniq compare prefixes) <> List.length prefixes then
    invalid_arg "Compose.merge: duplicate prefixes";
  let lib =
    match blocks with (_, nl) :: _ -> Netlist.lib nl | [] -> assert false
  in
  let top = Netlist.create ~name ~lib () in
  let clk = ref None in
  let top_clock () =
    match !clk with
    | Some c -> c
    | None ->
      let c = Netlist.add_input ~clock:true top "clk" in
      clk := Some c;
      c
  in
  List.iter
    (fun (prefix, src) ->
      let net_map = Hashtbl.create 997 in
      let inst_map = Hashtbl.create 997 in
      (* nets first: clock PIs unify, other ports get prefixed ports *)
      Netlist.iter_nets src (fun nid ->
          let new_name = prefix ^ "_" ^ Netlist.net_name src nid in
          let dst =
            if Netlist.is_clock_net src nid && Netlist.is_pi src nid then top_clock ()
            else if Netlist.is_pi src nid then Netlist.add_input top new_name
            else if Netlist.is_po src nid then Netlist.add_output top new_name
            else begin
              let n = Netlist.add_net top new_name in
              if Netlist.is_clock_net src nid then Netlist.mark_clock top n;
              n
            end
          in
          Hashtbl.replace net_map nid dst);
      (* instances with mapped pins *)
      Netlist.iter_insts src (fun iid ->
          let cell = Netlist.cell src iid in
          let pins =
            List.map (fun (p, nid) -> (p, Hashtbl.find net_map nid)) (Netlist.conns src iid)
          in
          let new_inst =
            Netlist.add_inst top
              ~name:(prefix ^ "_" ^ Netlist.inst_name src iid)
              cell pins
          in
          Hashtbl.replace inst_map iid new_inst);
      (* VGND attachments *)
      Netlist.iter_insts src (fun iid ->
          match Netlist.vgnd_switch src iid with
          | Some sw ->
            Netlist.set_vgnd_switch top (Hashtbl.find inst_map iid)
              (Some (Hashtbl.find inst_map sw))
          | None -> ()))
    blocks;
  top
