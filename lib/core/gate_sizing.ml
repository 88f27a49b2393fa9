module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Library = Smt_cell.Library
module Sta = Smt_sta.Sta

type result = {
  resized : int;
  sta : Sta.t;
}

(* The drive just below [drive] in an ascending list of drives. *)
let rec weaker drive = function
  | d :: (next :: _ as rest) -> if next = drive then Some d else weaker drive rest
  | _ -> None

(* Delay change of swapping [iid] from [c] to [c'], including the load
   penalty the changed input capacitance inflicts on each driving cell. *)
let move_delta sta iid c c' =
  let nl = Sta.netlist sta in
  let load = Sta.load sta iid in
  let cap_delta = c'.Cell.input_cap -. c.Cell.input_cap in
  Cell.delay c' ~load_ff:load -. Cell.delay c ~load_ff:load
  +. List.fold_left
       (fun acc pred -> acc +. ((Netlist.cell nl pred).Cell.drive_res *. cap_delta))
       0.0 (Netlist.fanin_insts nl iid)

let downsize_idle cfg nl =
  let lib = Netlist.lib nl in
  let sta = Sta.analyze cfg nl in
  let propose offered =
    Vth_assign.tightest_first
      (List.filter_map
         (fun iid ->
           let c = Netlist.cell nl iid in
           match weaker c.Cell.drive Library.drives with
           | Some drive
             when (not (Smt_cell.Func.is_infrastructure c.Cell.kind))
                  && Library.has_variant ~drive lib c.Cell.kind c.Cell.vth c.Cell.style ->
             let c' = Library.resize lib c drive in
             let slack = Sta.inst_slack sta iid in
             let delta = move_delta sta iid c c' in
             if slack > 0.0 && Vth_assign.covers ~slack ~delta then
               Some (slack, { Vth_assign.iid; cell = c'; undo = c })
             else None
           | _ -> None)
         offered)
  in
  { resized = Vth_assign.batch_swap ~passes:8 sta propose; sta }
