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

let convert ?(safety = 1.5) cfg nl =
  let lib = Netlist.lib nl in
  let ret = Library.retention_dff lib in
  let sta = Sta.analyze cfg nl in
  let converted = ref 0 in
  let candidates =
    Netlist.live_insts nl
    |> List.filter_map (fun iid ->
           let c = Netlist.cell nl iid in
           if c.Cell.kind = Func.Dff && not (Library.is_retention c) then begin
             (* the conversion slows clk->q and tightens setup *)
             let delta =
               ret.Cell.intrinsic_delay -. c.Cell.intrinsic_delay
               +. (ret.Cell.setup -. c.Cell.setup)
             in
             let slack = Sta.inst_slack sta iid in
             if slack >= safety *. Float.max 0.0 delta then
               Some (iid, c, c.Cell.leak_standby -. ret.Cell.leak_standby, slack)
             else None
           end
           else None)
    |> List.filter (fun (_, _, saving, _) -> saving > 0.0)
    |> List.sort (fun (_, _, s1, _) (_, _, s2, _) -> compare s2 s1)
  in
  List.iter (fun (iid, _, _, _) -> Netlist.replace_cell nl iid ret) candidates;
  converted := List.length candidates;
  Sta.update sta;
  (* rollback the tightest conversions if the batch overshot *)
  let remaining = ref (List.sort (fun (_, _, _, a) (_, _, _, b) -> compare a b) candidates) in
  while Sta.wns sta < 0.0 && !remaining <> [] do
    let chunk_size = max 1 (List.length !remaining / 8) in
    let chunk = List.filteri (fun i _ -> i < chunk_size) !remaining in
    remaining := List.filteri (fun i _ -> i >= chunk_size) !remaining;
    List.iter
      (fun (iid, original, _, _) ->
        Netlist.replace_cell nl iid original;
        decr converted)
      chunk;
    Sta.update sta
  done;
  { converted = !converted; sta }
