module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Vth = Smt_cell.Vth
module Library = Smt_cell.Library
module Sta = Smt_sta.Sta

type move = { iid : Netlist.inst_id; cell : Cell.t; undo : Cell.t }

let covers ~slack ~delta = slack >= 1.5 *. Float.max 0.0 delta

let tightest_first slack_moves =
  List.rev_map snd (List.stable_sort (fun (s1, _) (s2, _) -> compare s2 s1) slack_moves)

let batch_swap ~passes sta propose =
  let nl = Sta.netlist sta in
  let reverted = Hashtbl.create 97 in
  (* Reverts the first [k] moves and returns the rest. *)
  let rec revert k = function
    | m :: rest when k > 0 ->
      Netlist.replace_cell nl m.iid m.undo;
      Hashtbl.replace reverted m.iid ();
      revert (k - 1) rest
    | rest -> rest
  in
  (* Reverts in chunks of an eighth of what is left until timing is met;
     returns how many moves stay. *)
  let rec rollback moves n =
    if n = 0 || not (Sta.wns sta < 0.0) then n
    else begin
      let chunk = max 1 (n / 8) in
      let rest = revert chunk moves in
      Sta.update sta;
      rollback rest (n - chunk)
    end
  in
  let rec pass left kept =
    if left = 0 then kept
    else
      match
        propose (List.filter (fun iid -> not (Hashtbl.mem reverted iid)) (Netlist.live_insts nl))
      with
      | [] -> kept
      | moves ->
        List.iter (fun m -> Netlist.replace_cell nl m.iid m.cell) moves;
        Sta.update sta;
        let n = rollback moves (List.length moves) in
        if n = 0 then kept else pass (left - 1) (kept + n)
  in
  pass passes 0

type result = {
  swapped : int;
  sta : Sta.t;
}

let is_low_vth c =
  c.Cell.style = Vth.Plain && c.Cell.vth = Vth.Low
  && not (Smt_cell.Func.is_infrastructure c.Cell.kind)

let low_vth_cells nl =
  List.filter (fun iid -> is_low_vth (Netlist.cell nl iid)) (Netlist.live_insts nl)

let assign cfg nl =
  let lib = Netlist.lib nl in
  let sta = Sta.analyze cfg nl in
  let propose offered =
    tightest_first
      (List.filter_map
         (fun iid ->
           let c = Netlist.cell nl iid in
           let drive = c.Cell.drive in
           if is_low_vth c && Library.has_variant ~drive lib c.Cell.kind Vth.High Vth.Plain then begin
             let hv = Library.variant ~drive lib c.Cell.kind Vth.High Vth.Plain in
             let slack = Sta.inst_slack sta iid in
             let load = Sta.load sta iid in
             let delta = Cell.delay hv ~load_ff:load -. Cell.delay c ~load_ff:load in
             if slack > 0.0 && covers ~slack ~delta then Some (slack, { iid; cell = hv; undo = c })
             else None
           end
           else None)
         offered)
  in
  { swapped = batch_swap ~passes:10 sta propose; sta }
