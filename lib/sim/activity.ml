module Netlist = Smt_netlist.Netlist
module Rng = Smt_util.Rng

type t = {
  toggles_per_cycle : float array;
  cycles : int;
}

let estimate ?(cycles = 200) ?(seed = 7) nl =
  let sim = Simulator.create nl in
  let rng = Rng.create seed in
  let inputs =
    Netlist.inputs nl
    |> List.filter_map (fun (_, nid) -> if Netlist.is_clock_net nl nid then None else Some nid)
    |> Array.of_list
  in
  (* Every instance that drives a net, with that net. *)
  let watched =
    Netlist.live_insts nl
    |> List.filter_map (fun iid -> Option.map (fun out -> (iid, out)) (Netlist.output_net nl iid))
  in
  let insts = Array.of_list (List.map fst watched) and nets = Array.of_list (List.map snd watched) in
  (* per watched net: its toggles and its code in the last cycle *)
  let toggles = Array.make (Array.length nets) 0 and last = Array.make (Array.length nets) 0 in
  Simulator.reset sim;
  for cycle = 0 to cycles - 1 do
    Array.iter (fun nid -> Simulator.set_input sim nid (Logic.of_bool (Rng.bool rng))) inputs;
    Simulator.propagate sim;
    for w = 0 to Array.length nets - 1 do
      let v = Simulator.code_of sim nets.(w) in
      if cycle > 0 && v <> last.(w) then toggles.(w) <- toggles.(w) + 1;
      last.(w) <- v
    done;
    Simulator.clock_edge sim
  done;
  let counts = Array.make (Netlist.inst_count nl) 0 in
  Array.iteri (fun w iid -> counts.(iid) <- toggles.(w)) insts;
  let denom = float_of_int (max 1 (cycles - 1)) in
  { toggles_per_cycle = Array.map (fun c -> float_of_int c /. denom) counts; cycles }

let factor t iid =
  if iid < Array.length t.toggles_per_cycle then t.toggles_per_cycle.(iid) else 0.0

let average t =
  let n = Array.length t.toggles_per_cycle in
  if n = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 t.toggles_per_cycle /. float_of_int n
