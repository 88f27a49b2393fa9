module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Cell = Smt_cell.Cell
module Vth = Smt_cell.Vth
module Library = Smt_cell.Library
module Walk = Smt_check.Walk
module Geom = Smt_util.Geom

type result = {
  initial_switch : Netlist.inst_id;
  holders_inserted : int;
  holders_avoided : int;
  mte_net : Netlist.net_id;
}

let mte_net_of nl =
  match Netlist.find_net nl "MTE" with
  | Some nid -> nid
  | None -> Netlist.add_input nl "MTE"

let connect_embedded_mte nl mte =
  Netlist.iter_insts nl (fun iid ->
      let c = Netlist.cell nl iid in
      if Vth.style_equal c.Cell.style Vth.Mt_embedded && Netlist.pin_net nl iid "MTE" = None
      then Netlist.connect nl iid "MTE" mte)

let insert ?(minimize_holders = true) place =
  let nl = Placement.netlist place in
  let lib = Netlist.lib nl in
  let pending =
    List.filter
      (fun iid -> (Netlist.cell nl iid).Cell.style = Vth.Mt_no_vgnd)
      (Netlist.live_insts nl)
  in
  if pending = [] then
    invalid_arg "Switch_insert.insert: no MT-cells awaiting VGND ports";
  let mte = mte_net_of nl in
  (* Give every MT-cell its VGND port. *)
  List.iter
    (fun iid ->
      let c = Netlist.cell nl iid in
      Netlist.replace_cell nl iid (Library.variant ~drive:c.Cell.drive lib c.Cell.kind Vth.Low Vth.Mt_vgnd))
    pending;
  (* One switch for the whole block: the paper's initial structure. *)
  let sw_cell = Library.switch lib ~width:Library.initial_switch_width in
  let sw_name = Netlist.fresh_inst_name nl "sw" in
  let sw = Netlist.add_inst nl ~name:sw_name sw_cell [ ("MTE", mte) ] in
  Placement.place_inst place sw (Placement.centroid place pending);
  List.iter (fun iid -> Netlist.set_vgnd_switch nl iid (Some sw)) pending;
  (* Output holders where the held value leaves the MT domain. *)
  let holder_cell = Library.holder lib in
  let inserted = ref 0 and avoided = ref 0 in
  Netlist.iter_nets nl (fun nid ->
      match Netlist.driver nl nid with
      | Some d when Cell.is_mt (Netlist.cell nl d.Netlist.inst) ->
        let needed = Walk.holder_required nl nid in
        if needed || not minimize_holders then begin
          let name = Netlist.fresh_inst_name nl "holder" in
          let h = Netlist.add_inst nl ~name holder_cell [ ("MTE", mte); ("Z", nid) ] in
          (match Placement.inst_point_opt place d.Netlist.inst with
          | Some p -> Placement.place_inst place h p
          | None -> Placement.place_inst place h (Geom.center (Placement.die place)));
          incr inserted
        end
        else incr avoided
      | Some _ | None -> ());
  { initial_switch = sw; holders_inserted = !inserted; holders_avoided = !avoided; mte_net = mte }
