module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth

type breakdown = {
  total : float;
  low_vth_logic : float;
  high_vth_logic : float;
  sequential : float;
  mt_residual : float;
  switches : float;
  embedded_mt : float;
  holders : float;
  infrastructure : float;
}

(* [name] from index [i] on starts with [prefix] from [i] on.  A
   top-level loop: [String.starts_with] allocates a closure per call. *)
let rec has_prefix prefix name i =
  i = String.length prefix
  || i < String.length name
     && Char.equal (String.unsafe_get prefix i) (String.unsafe_get name i)
     && has_prefix prefix name (i + 1)

(* Buffers inserted by CTS / MTE buffering / ECO are recognisable by name
   stem; they are ordinary cells, the classification is only for the
   report. *)
let is_infrastructure_inst nl iid =
  let name = Netlist.inst_name nl iid in
  has_prefix "ctsbuf" name 0 || has_prefix "mtebuf" name 0 || has_prefix "ecobuf" name 0

let standby nl =
  let total = ref 0.0 and low_vth_logic = ref 0.0 and high_vth_logic = ref 0.0 in
  let sequential = ref 0.0 and mt_residual = ref 0.0 and switches = ref 0.0 in
  let embedded_mt = ref 0.0 and holders = ref 0.0 and infrastructure = ref 0.0 in
  (* A loop, not [Netlist.iter_insts]: the accumulators stay unboxed when
     no closure captures them. *)
  for iid = 0 to Netlist.inst_count nl - 1 do
    if not (Netlist.is_dead nl iid) then begin
      let c = Netlist.cell nl iid in
      let leak = c.Cell.leak_standby in
      total := !total +. leak;
      match c.Cell.kind with
      | Func.Sleep_switch -> switches := !switches +. leak
      | Func.Holder -> holders := !holders +. leak
      | Func.Dff -> sequential := !sequential +. leak
      | Func.Inv | Func.Buf | Func.Clkbuf | Func.Nand2 | Func.Nand3 | Func.Nand4
      | Func.Nor2 | Func.Nor3 | Func.And2 | Func.And3 | Func.Or2 | Func.Or3
      | Func.Xor2 | Func.Xnor2 | Func.Aoi21 | Func.Oai21 | Func.Mux2 -> (
        match c.Cell.style with
        | Vth.Mt_embedded -> embedded_mt := !embedded_mt +. leak
        | Vth.Mt_no_vgnd | Vth.Mt_vgnd -> mt_residual := !mt_residual +. leak
        | Vth.Plain ->
          if is_infrastructure_inst nl iid then infrastructure := !infrastructure +. leak
          else if c.Cell.vth = Vth.Low then low_vth_logic := !low_vth_logic +. leak
          else high_vth_logic := !high_vth_logic +. leak)
    end
  done;
  {
    total = !total;
    low_vth_logic = !low_vth_logic;
    high_vth_logic = !high_vth_logic;
    sequential = !sequential;
    mt_residual = !mt_residual;
    switches = !switches;
    embedded_mt = !embedded_mt;
    holders = !holders;
    infrastructure = !infrastructure;
  }

let active nl =
  let acc = ref 0.0 in
  Netlist.iter_insts nl (fun iid -> acc := !acc +. (Netlist.cell nl iid).Cell.leak_active);
  !acc

let scale b k =
  {
    total = b.total *. k;
    low_vth_logic = b.low_vth_logic *. k;
    high_vth_logic = b.high_vth_logic *. k;
    sequential = b.sequential *. k;
    mt_residual = b.mt_residual *. k;
    switches = b.switches *. k;
    embedded_mt = b.embedded_mt *. k;
    holders = b.holders *. k;
    infrastructure = b.infrastructure *. k;
  }

let at_corner corner nl =
  let tech = Smt_cell.Library.tech (Netlist.lib nl) in
  scale (standby nl) (Smt_cell.Corner.leakage_factor tech corner)

(* --- attribution: who exactly holds the residual leakage ------------- *)

type class_share = { share_label : string; share_cells : int; share_nw : float }

let shares_of_table table =
  Hashtbl.fold (fun label (cells, nw) acc -> { share_label = label; share_cells = cells; share_nw = nw } :: acc)
    table []
  |> List.sort (fun a b -> compare (b.share_nw, b.share_label) (a.share_nw, a.share_label))

let group_by nl label_of =
  let table = Hashtbl.create 31 in
  Netlist.iter_insts nl (fun iid ->
      let c = Netlist.cell nl iid in
      let label = label_of iid c in
      let cells, nw =
        match Hashtbl.find_opt table label with Some x -> x | None -> (0, 0.0)
      in
      Hashtbl.replace table label (cells + 1, nw +. c.Cell.leak_standby));
  shares_of_table table

let by_vth nl =
  group_by nl (fun _ (c : Cell.t) ->
      match c.Cell.style with
      | Vth.Plain -> Vth.to_string c.Cell.vth
      | style -> Printf.sprintf "%s %s" (Vth.to_string c.Cell.vth) (Vth.style_to_string style))

let by_function nl = group_by nl (fun _ (c : Cell.t) -> Func.to_string c.Cell.kind)

type cluster_attr = {
  ca_switch : Netlist.inst_id;
  ca_switch_name : string;
  ca_members : int;
  ca_cell_limit : int;
  ca_vgnd_um : float;
  ca_bounce_v : float;
  ca_bounce_limit : float;
  ca_members_nw : float;
  ca_switch_nw : float;
}

let clusters ?cell_limit ?bounce_limit nl ~bounce =
  let tech = Smt_cell.Library.tech (Netlist.lib nl) in
  let cell_limit =
    match cell_limit with Some l -> l | None -> tech.Smt_cell.Tech.em_cell_limit
  in
  let bounce_limit =
    match bounce_limit with Some l -> l | None -> tech.Smt_cell.Tech.bounce_limit
  in
  let groups = Hashtbl.create 97 in
  List.iter (fun (sw, ms) -> Hashtbl.replace groups sw ms) (Netlist.switch_groups nl);
  List.map
    (fun (r : Bounce.cluster_report) ->
      let members =
        Option.value (Hashtbl.find_opt groups r.Bounce.switch) ~default:[]
      in
      let members_nw =
        List.fold_left (fun acc m -> acc +. (Netlist.cell nl m).Cell.leak_standby) 0.0 members
      in
      {
        ca_switch = r.Bounce.switch;
        ca_switch_name = Netlist.inst_name nl r.Bounce.switch;
        ca_members = r.Bounce.members;
        ca_cell_limit = cell_limit;
        ca_vgnd_um = r.Bounce.wire_length;
        ca_bounce_v = r.Bounce.bounce;
        ca_bounce_limit = bounce_limit;
        ca_members_nw = members_nw;
        ca_switch_nw = (Netlist.cell nl r.Bounce.switch).Cell.leak_standby;
      })
    bounce
  |> List.sort (fun a b -> compare (b.ca_members_nw +. b.ca_switch_nw) (a.ca_members_nw +. a.ca_switch_nw))

let pp fmt b =
  Format.fprintf fmt
    "standby %.1f nW (lv=%.1f hv=%.1f seq=%.1f mt=%.1f sw=%.1f emb=%.1f hold=%.1f infra=%.1f)"
    b.total b.low_vth_logic b.high_vth_logic b.sequential b.mt_residual b.switches
    b.embedded_mt b.holders b.infrastructure
