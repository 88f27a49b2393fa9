module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth

let find_mte_net nl = Netlist.find_net nl "MTE"

let mte_net_of nl =
  match find_mte_net nl with
  | Some nid -> nid
  | None -> Netlist.add_input nl "MTE"

type vgnd_state =
  | Ungated
  | Gated of Netlist.inst_id
  | Floating_vgnd
  | Dead_switch of Netlist.inst_id

let vgnd_state nl iid =
  match (Netlist.cell nl iid).Cell.style with
  | Vth.Plain | Vth.Mt_embedded | Vth.Mt_no_vgnd -> Ungated
  | Vth.Mt_vgnd -> (
    match Netlist.vgnd_switch nl iid with
    | None -> Floating_vgnd
    | Some sw -> if Netlist.is_dead nl sw then Dead_switch sw else Gated sw)

type keeper_state =
  | No_keeper
  | Keeper of Netlist.inst_id
  | Dead_keeper of Netlist.inst_id
  | Not_a_holder of Netlist.inst_id

let keeper_state nl nid =
  match Netlist.holder_of nl nid with
  | None -> No_keeper
  | Some h ->
    if Netlist.is_dead nl h then Dead_keeper h
    else if (Netlist.cell nl h).Cell.kind <> Func.Holder then Not_a_holder h
    else Keeper h

let populated_switches nl =
  List.filter_map
    (fun (sw, members) -> if members <> [] then Some sw else None)
    (Netlist.switch_groups nl)

let sane_switches nl =
  List.filter
    (fun sw ->
      let w = (Netlist.cell nl sw).Cell.switch_width in
      Float.is_finite w && w > 0.0)
    (Netlist.switches nl)

let mt_inst nl iid = Cell.is_mt (Netlist.cell nl iid)

(* Only VGND-style MT-cells need external holders: the conventional
   embedded MT-cell carries its own (paper Fig. 1a). *)
let floating_driver nl iid =
  match (Netlist.cell nl iid).Cell.style with
  | Vth.Mt_vgnd | Vth.Mt_no_vgnd -> true
  | Vth.Plain | Vth.Mt_embedded -> false

let holder_required nl nid =
  match Netlist.driver nl nid with
  | None -> false
  | Some d ->
    floating_driver nl d.Netlist.inst
    && (Netlist.is_po nl nid
       || List.exists (fun (p : Netlist.pin) -> not (mt_inst nl p.Netlist.inst))
            (Netlist.sinks nl nid))
