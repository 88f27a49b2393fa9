module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Library = Smt_cell.Library
module Sta = Smt_sta.Sta

type result = {
  resized : int;
  passes : int;
  sta : Sta.t;
}

let next_drive up drive =
  let sorted = List.sort compare Library.drives in
  let ordered = if up then sorted else List.rev sorted in
  let rec after = function
    | d :: next :: _ when d = drive -> Some next
    | _ :: rest -> after rest
    | [] -> None
  in
  after ordered

let candidate_cell nl up iid =
  let lib = Netlist.lib nl in
  let c = Netlist.cell nl iid in
  if Smt_cell.Func.is_infrastructure c.Cell.kind then None
  else
    match next_drive up c.Cell.drive with
    | Some drive ->
      if Library.has_variant ~drive lib c.Cell.kind c.Cell.vth c.Cell.style then
        Some (Library.resize lib c drive)
      else None
    | None -> None

let sizable nl iid =
  candidate_cell nl true iid <> None || candidate_cell nl false iid <> None

(* Delay change of swapping [iid] to [cell'], including the load penalty the
   changed input capacitance inflicts on each driving cell. *)
let move_delta cfg nl iid cell' =
  let c = Netlist.cell nl iid in
  let load =
    match Netlist.output_net nl iid with
    | Some out -> Sta.load_of_net cfg nl out
    | None -> 0.0
  in
  let self = Cell.delay cell' ~load_ff:load -. Cell.delay c ~load_ff:load in
  let cap_delta = cell'.Cell.input_cap -. c.Cell.input_cap in
  let upstream =
    List.fold_left
      (fun acc pred -> acc +. ((Netlist.cell nl pred).Cell.drive_res *. cap_delta))
      0.0 (Netlist.fanin_insts nl iid)
  in
  self +. upstream

let max_passes = 8

(* A cell is downsized only when its slack covers [safety] times the
   move's delay increase. *)
let safety = 1.5

let downsize_idle cfg nl =
  let frozen = Hashtbl.create 97 in
  let resized = ref 0 in
  let passes = ref 0 in
  let sta = Sta.analyze cfg nl in
  let keep_going = ref true in
  while !keep_going && !passes < max_passes do
    incr passes;
    let candidates =
      Netlist.live_insts nl
      |> List.filter (fun iid -> not (Hashtbl.mem frozen iid))
      |> List.filter_map (fun iid ->
             match candidate_cell nl false iid with
             | Some cell' ->
               let slack = Sta.inst_slack sta iid in
               let delta = move_delta cfg nl iid cell' in
               if slack > 0.0 && slack >= safety *. delta then Some (iid, cell', slack)
               else None
             | None -> None)
      |> List.sort (fun (_, _, s1) (_, _, s2) -> compare s2 s1)
    in
    if candidates = [] then keep_going := false
    else begin
      List.iter (fun (iid, cell', _) -> Netlist.replace_cell nl iid cell') candidates;
      Sta.update sta;
      let this_pass = ref (List.length candidates) in
      let remaining = ref (List.rev candidates) in
      while Sta.wns sta < 0.0 && !remaining <> [] do
        let chunk_size = max 1 (List.length !remaining / 8) in
        let chunk = List.filteri (fun i _ -> i < chunk_size) !remaining in
        remaining := List.filteri (fun i _ -> i >= chunk_size) !remaining;
        List.iter
          (fun (iid, cell', _) ->
            (match next_drive true cell'.Cell.drive with
            | Some drive ->
              Netlist.replace_cell nl iid (Library.resize (Netlist.lib nl) cell' drive)
            | None -> ());
            Hashtbl.replace frozen iid ();
            decr this_pass)
          chunk;
        Sta.update sta
      done;
      resized := !resized + !this_pass;
      if !this_pass = 0 then keep_going := false
    end
  done;
  { resized = !resized; passes = !passes; sta }
