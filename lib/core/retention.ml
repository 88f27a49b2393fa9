module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Library = Smt_cell.Library
module Sta = Smt_sta.Sta

type result = {
  converted : int;
  sta : Sta.t;
}

let retention_registers nl =
  List.filter
    (fun iid -> Library.is_retention (Netlist.cell nl iid))
    (Netlist.live_insts nl)

let convert cfg nl =
  let ret = Library.retention_dff (Netlist.lib nl) in
  let sta = Sta.analyze cfg nl in
  (* Largest saving first; a revert takes the tightest slack first. *)
  let propose offered =
    List.filter_map
      (fun iid ->
        let c = Netlist.cell nl iid in
        if c.Cell.kind = Func.Dff && not (Library.is_retention c) then begin
          (* the conversion slows clk->q and tightens setup *)
          let delta =
            ret.Cell.intrinsic_delay -. c.Cell.intrinsic_delay +. (ret.Cell.setup -. c.Cell.setup)
          in
          let slack = Sta.inst_slack sta iid in
          let saving = c.Cell.leak_standby -. ret.Cell.leak_standby in
          if Vth_assign.covers ~slack ~delta && saving > 0.0 then
            Some (saving, slack, { Vth_assign.iid; cell = ret; undo = c })
          else None
        end
        else None)
      offered
    |> List.stable_sort (fun (s1, _, _) (s2, _, _) -> compare s2 s1)
    |> List.stable_sort (fun (_, a, _) (_, b, _) -> compare a b)
    |> List.map (fun (_, _, m) -> m)
  in
  { converted = Vth_assign.batch_swap ~passes:1 sta propose; sta }
