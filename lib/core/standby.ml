module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Simulator = Smt_sim.Simulator
module Logic = Smt_sim.Logic
module Rng = Smt_util.Rng
module Sta = Smt_sta.Sta

type outcome = {
  cycles_run : int;
  state_preserved : bool;
  outputs_defined_in_standby : bool;
  x_leaks_into_awake_logic : int;
  first_wake_cycle_correct : bool;
  all_wake_cycles_correct : bool;
}

let data_inputs nl =
  Netlist.inputs nl
  |> List.filter (fun (name, nid) ->
         (not (Netlist.is_clock_net nl nid)) && not (String.equal name "MTE"))
  |> List.map fst

let ffs nl =
  List.filter
    (fun iid -> (Netlist.cell nl iid).Cell.kind = Smt_cell.Func.Dff)
    (Netlist.live_insts nl)

let outputs_equal a b =
  List.for_all2
    (fun (_, va) (_, vb) -> Logic.equal va vb)
    (Simulator.output_values a) (Simulator.output_values b)

let cycles_before = 4
let standby_cycles = 3
let cycles_after = 4

let simulate ?(seed = 3) nl =
  let dut = Simulator.create nl and reference = Simulator.create nl in
  Simulator.reset dut;
  Simulator.reset reference;
  let rng = Rng.create seed in
  let names = data_inputs nl in
  let has_mte = Smt_check.Walk.find_mte_net nl <> None in
  let set_mte sim v = if has_mte then Simulator.set_inputs sim [ ("MTE", v) ] in
  let clock_inputs nl =
    Netlist.inputs nl
    |> List.filter (fun (_, nid) -> Netlist.is_clock_net nl nid)
    |> List.map fst
  in
  let drive sim vector =
    Simulator.set_inputs sim vector;
    List.iter (fun c -> Simulator.set_inputs sim [ (c, Logic.F) ]) (clock_inputs nl)
  in
  set_mte dut Logic.F;
  set_mte reference Logic.F;
  (* warm-up: both run identically *)
  for _ = 1 to cycles_before do
    let vector = List.map (fun n -> (n, Logic.of_bool (Rng.bool rng))) names in
    drive dut vector;
    drive reference vector;
    Simulator.propagate dut;
    Simulator.propagate reference;
    Simulator.clock_edge dut;
    Simulator.clock_edge reference
  done;
  (* standby: MTE asserted, clock gated (no edges), inputs frozen *)
  set_mte dut Logic.T;
  let x_leaks = ref 0 in
  let outputs_ok = ref true in
  for _ = 1 to standby_cycles do
    Simulator.propagate ~mode:Simulator.Standby dut;
    List.iter
      (fun nid ->
        if Netlist.is_po nl nid then outputs_ok := false;
        List.iter
          (fun (p : Netlist.pin) ->
            if not (Cell.is_mt (Netlist.cell nl p.Netlist.inst)) then incr x_leaks)
          (Netlist.sinks nl nid))
      (Simulator.floating_nets dut)
  done;
  (* state check: the reference has simply been idle *)
  let state_preserved =
    List.for_all
      (fun ff -> Logic.equal (Simulator.ff_state dut ff) (Simulator.ff_state reference ff))
      (ffs nl)
  in
  (* wake: MTE released, both resume on identical inputs *)
  set_mte dut Logic.F;
  let first_ok = ref true and all_ok = ref true in
  for cycle = 1 to cycles_after do
    let vector = List.map (fun n -> (n, Logic.of_bool (Rng.bool rng))) names in
    drive dut vector;
    drive reference vector;
    Simulator.propagate dut;
    Simulator.propagate reference;
    let same = outputs_equal dut reference in
    if cycle = 1 && not same then first_ok := false;
    if not same then all_ok := false;
    Simulator.clock_edge dut;
    Simulator.clock_edge reference
  done;
  {
    cycles_run = cycles_before + standby_cycles + cycles_after;
    state_preserved;
    outputs_defined_in_standby = !outputs_ok;
    x_leaks_into_awake_logic = !x_leaks;
    first_wake_cycle_correct = !first_ok;
    all_wake_cycles_correct = !all_ok;
  }

let mte_tree_delay cfg nl =
  match Smt_check.Walk.find_mte_net nl with
  | None -> 0.0
  | Some mte ->
    (* worst path through mtebuf stages, buffer delay at actual loads *)
    let rec walk nid depth_delay =
      let sinks = Netlist.sinks nl nid in
      List.fold_left
        (fun acc (p : Netlist.pin) ->
          let name = Netlist.inst_name nl p.Netlist.inst in
          let is_buf = String.length name >= 6 && String.sub name 0 6 = "mtebuf" in
          if is_buf then
            match Netlist.output_net nl p.Netlist.inst with
            | Some out ->
              let d = Sta.cell_delay cfg nl p.Netlist.inst in
              Float.max acc (walk out (depth_delay +. d))
            | None -> acc
          else Float.max acc depth_delay)
        depth_delay sinks
    in
    walk mte 0.0
