module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Vth = Smt_cell.Vth
module Library = Smt_cell.Library
module Sta = Smt_sta.Sta

type result = {
  swapped : int;
  passes : int;
  sta : Sta.t;
}

let low_vth_cells nl =
  List.filter
    (fun iid ->
      let c = Netlist.cell nl iid in
      c.Cell.style = Vth.Plain && c.Cell.vth = Vth.Low
      && not (Smt_cell.Func.is_infrastructure c.Cell.kind))
    (Netlist.live_insts nl)

(* Delay increase of swapping this one cell to high-Vth, at its current
   load. *)
let self_delta cfg nl iid hv =
  let lv = Netlist.cell nl iid in
  let load =
    match Netlist.output_net nl iid with
    | Some out -> Sta.load_of_net cfg nl out
    | None -> 0.0
  in
  Cell.delay hv ~load_ff:load -. Cell.delay lv ~load_ff:load

let max_passes = 10

(* A cell is swapped only when its slack covers [safety] times its own
   delay increase. *)
let safety = 1.5

let assign cfg nl =
  let lib = Netlist.lib nl in
  let frozen = Hashtbl.create 97 in
  let swapped_total = ref 0 in
  let passes = ref 0 in
  let sta = Sta.analyze cfg nl in
  let keep_going = ref true in
  while !keep_going && !passes < max_passes do
    incr passes;
    let candidates =
      low_vth_cells nl
      |> List.filter (fun iid -> not (Hashtbl.mem frozen iid))
      |> List.filter_map (fun iid ->
             let c = Netlist.cell nl iid in
             if Library.has_variant ~drive:c.Cell.drive lib c.Cell.kind Vth.High Vth.Plain then begin
               let hv = Library.variant ~drive:c.Cell.drive lib c.Cell.kind Vth.High Vth.Plain in
               let slack = Sta.inst_slack sta iid in
               let delta = self_delta cfg nl iid hv in
               if slack >= safety *. delta && slack > 0.0 then Some (iid, hv, slack) else None
             end
             else None)
      |> List.sort (fun (_, _, s1) (_, _, s2) -> compare s2 s1)
    in
    if candidates = [] then keep_going := false
    else begin
      List.iter (fun (iid, hv, _) -> Netlist.replace_cell nl iid hv) candidates;
      Sta.update sta;
      let this_pass = ref (List.length candidates) in
      (* Rollback: revert the tightest-slack swaps in chunks until timing
         is met again. Reverted cells are frozen so the loop terminates. *)
      let remaining = ref (List.rev candidates) (* ascending slack *) in
      while Sta.wns sta < 0.0 && !remaining <> [] do
        let chunk_size = max 1 (List.length !remaining / 8) in
        let chunk = List.filteri (fun i _ -> i < chunk_size) !remaining in
        remaining := List.filteri (fun i _ -> i >= chunk_size) !remaining;
        List.iter
          (fun (iid, hv, _) ->
            let lv = Library.restyle lib hv Vth.Low Vth.Plain in
            Netlist.replace_cell nl iid lv;
            Hashtbl.replace frozen iid ();
            decr this_pass)
          chunk;
        Sta.update sta
      done;
      swapped_total := !swapped_total + !this_pass;
      if !this_pass = 0 then keep_going := false
    end
  done;
  { swapped = !swapped_total; passes = !passes; sta }
