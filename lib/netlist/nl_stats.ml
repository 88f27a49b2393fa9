module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth

type t = {
  instances : int;
  nets : int;
  combinational : int;
  sequential : int;
  sleep_switches : int;
  holders : int;
  count_low_vth : int;
  count_high_vth : int;
  count_mt : int;
  area_total : float;
  area_logic : float;
  area_mt_cells : float;
  area_switches : float;
  area_holders : float;
  total_switch_width : float;
}

let compute nl =
  let instances = ref 0 and combinational = ref 0 and sequential = ref 0 in
  let sleep_switches = ref 0 and holders = ref 0 in
  let count_low_vth = ref 0 and count_high_vth = ref 0 and count_mt = ref 0 in
  let area_total = ref 0.0 and area_logic = ref 0.0 and area_mt_cells = ref 0.0 in
  let area_switches = ref 0.0 and area_holders = ref 0.0 in
  let total_switch_width = ref 0.0 in
  let count_vth (c : Cell.t) =
    if c.Cell.vth = Vth.Low then incr count_low_vth;
    if c.Cell.vth = Vth.High then incr count_high_vth
  in
  (* A loop, not [Netlist.iter_insts]: the float accumulators stay
     unboxed when no closure captures them. *)
  for iid = 0 to Netlist.inst_count nl - 1 do
    if not (Netlist.is_dead nl iid) then begin
      let c = Netlist.cell nl iid in
      incr instances;
      area_total := !area_total +. c.Cell.area;
      match c.Cell.kind with
      | Func.Sleep_switch ->
        incr sleep_switches;
        area_switches := !area_switches +. c.Cell.area;
        total_switch_width := !total_switch_width +. c.Cell.switch_width
      | Func.Holder ->
        incr holders;
        area_holders := !area_holders +. c.Cell.area
      | Func.Dff ->
        incr sequential;
        area_logic := !area_logic +. c.Cell.area;
        count_vth c
      | Func.Inv | Func.Buf | Func.Clkbuf | Func.Nand2 | Func.Nand3 | Func.Nand4
      | Func.Nor2 | Func.Nor3 | Func.And2 | Func.And3 | Func.Or2 | Func.Or3
      | Func.Xor2 | Func.Xnor2 | Func.Aoi21 | Func.Oai21 | Func.Mux2 ->
        incr combinational;
        if Cell.is_mt c then begin
          incr count_mt;
          area_mt_cells := !area_mt_cells +. c.Cell.area;
          total_switch_width := !total_switch_width +. c.Cell.switch_width
        end
        else begin
          area_logic := !area_logic +. c.Cell.area;
          count_vth c
        end
    end
  done;
  {
    instances = !instances;
    nets = Netlist.net_count nl;
    combinational = !combinational;
    sequential = !sequential;
    sleep_switches = !sleep_switches;
    holders = !holders;
    count_low_vth = !count_low_vth;
    count_high_vth = !count_high_vth;
    count_mt = !count_mt;
    area_total = !area_total;
    area_logic = !area_logic;
    area_mt_cells = !area_mt_cells;
    area_switches = !area_switches;
    area_holders = !area_holders;
    total_switch_width = !total_switch_width;
  }

let mt_area_fraction t =
  let logic = t.area_logic +. t.area_mt_cells in
  if logic = 0.0 then 0.0 else t.area_mt_cells /. logic

let pp fmt t =
  Format.fprintf fmt
    "insts=%d (comb=%d seq=%d sw=%d holder=%d) lv=%d hv=%d mt=%d area=%.1f \
     (logic=%.1f mt=%.1f sw=%.1f holder=%.1f) sw_width=%.1f"
    t.instances t.combinational t.sequential t.sleep_switches t.holders t.count_low_vth
    t.count_high_vth t.count_mt t.area_total t.area_logic t.area_mt_cells t.area_switches
    t.area_holders t.total_switch_width
