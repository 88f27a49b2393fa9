module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func

type mode = Active | Standby

(* Values are stored as codes: 0 = F, 1 = T, 2 = X. *)
let code = function Logic.F -> 0 | Logic.T -> 1 | Logic.X -> 2
let of_code = [| Logic.F; Logic.T; Logic.X |]
let x = code Logic.X

type t = {
  nl : Netlist.t;
  values : int array;
      (* indexed by net id; one extra trailing slot stays X and is what an
         unconnected input pin reads *)
  (* combinational gates, in topological order *)
  g_out : Netlist.net_id array;
  g_in_start : int array;  (* gate g reads [g_in.(g_in_start.(g)) ..
                              g_in.(g_in_start.(g + 1) - 1)], in pin order *)
  g_in : Netlist.net_id array;
  g_table : int array;  (* offset of the gate's kind table in [tables] *)
  g_standby : int array;  (* the value the gate drives in standby, or -1 if
                             it keeps evaluating *)
  (* flip-flops: Q and D nets (-1 when unconnected) and the latched state *)
  ff_q : Netlist.net_id array;
  ff_d : Netlist.net_id array;
  ff_state : int array;
  ff_slot : int array;  (* by instance id: the flip-flop's slot, or -1 *)
}

let evaluates = function Func.Dff | Func.Sleep_switch | Func.Holder -> false | _ -> true

(* Every evaluated kind's 3-valued truth table, back to back in [tables].
   Entry [sum_j v_j * 3^(n-1-j)] of a kind's table is the code of
   [Logic.eval kind v], so X-propagation is exactly Logic's. *)
let truth_table kind =
  let names = Func.input_names kind in
  let n = Array.length names in
  let size = Array.fold_left (fun acc _ -> 3 * acc) 1 names in
  Array.init size (fun idx ->
      let ins = Array.make n Logic.F in
      let r = ref idx in
      for j = n - 1 downto 0 do
        ins.(j) <- of_code.(!r mod 3);
        r := !r / 3
      done;
      code (Logic.eval kind ins))

let tables, table_offsets =
  let parts = List.map (fun k -> (k, truth_table k)) (List.filter evaluates Func.all) in
  let _, offsets =
    List.fold_left_map (fun next (k, tbl) -> (next + Array.length tbl, (k, next))) 0 parts
  in
  (Array.concat (List.map snd parts), offsets)

let standby_rule nl (cell : Cell.t) out =
  (* MT logic is cut from ground: its output floats, unless a holder
     (embedded or attached to the net) keeps it at 1. *)
  match cell.Cell.style with
  | Smt_cell.Vth.Plain -> -1
  | Smt_cell.Vth.Mt_embedded -> code Logic.T
  | Smt_cell.Vth.Mt_vgnd | Smt_cell.Vth.Mt_no_vgnd ->
    code (if Netlist.holder_of nl out <> None then Logic.T else Logic.X)

let create nl =
  let x_slot = Netlist.net_count nl in
  (* one [read_pins] walk per gate: its input nets, [x_slot] where a pin is
     unconnected, and its output net *)
  let gates =
    Array.fold_right
      (fun iid acc ->
        let cell = Netlist.cell nl iid in
        if evaluates cell.Cell.kind then begin
          let ins = Array.make (Array.length (Func.input_names cell.Cell.kind)) x_slot in
          let out = Netlist.read_pins nl iid ins in
          if out >= 0 then (cell, ins, out) :: acc else acc
        end
        else acc)
      (Netlist.topo_order nl) []
  in
  let g_in = Array.concat (List.map (fun (_, ins, _) -> ins) gates) in
  let gates = Array.of_list gates in
  let g_in_start = Array.make (Array.length gates + 1) 0 in
  Array.iteri (fun g (_, ins, _) -> g_in_start.(g + 1) <- g_in_start.(g) + Array.length ins) gates;
  let ffs =
    List.filter (fun iid -> (Netlist.cell nl iid).Cell.kind = Func.Dff) (Netlist.live_insts nl)
    |> Array.of_list
  in
  let ff_slot = Array.make (Netlist.inst_count nl) (-1) in
  Array.iteri (fun f iid -> ff_slot.(iid) <- f) ffs;
  (* a flip-flop's one input pin is D, its output Q *)
  let ff_q = Array.make (Array.length ffs) (-1) and ff_d = Array.make (Array.length ffs) (-1) in
  Array.iteri
    (fun f iid ->
      let d = [| -1 |] in
      ff_q.(f) <- Netlist.read_pins nl iid d;
      ff_d.(f) <- d.(0))
    ffs;
  {
    nl;
    values = Array.make (x_slot + 1) x;
    g_out = Array.map (fun (_, _, out) -> out) gates;
    g_in_start;
    g_in;
    g_table = Array.map (fun (cell, _, _) -> List.assq cell.Cell.kind table_offsets) gates;
    g_standby = Array.map (fun (cell, _, out) -> standby_rule nl cell out) gates;
    ff_q;
    ff_d;
    ff_state = Array.make (Array.length ffs) (code Logic.F);
    ff_slot;
  }

let netlist t = t.nl

let set_input t nid v =
  if not (Netlist.is_pi t.nl nid) then
    invalid_arg
      (Printf.sprintf "Simulator.set_input: %s is not a primary input"
         (Netlist.net_name t.nl nid));
  t.values.(nid) <- code v

let set_inputs t bindings =
  List.iter
    (fun (name, v) ->
      match Netlist.find_net t.nl name with
      | Some nid -> set_input t nid v
      | None -> invalid_arg (Printf.sprintf "Simulator.set_inputs: no net %s" name))
    bindings

let slot t fn iid =
  let f = if iid >= 0 && iid < Array.length t.ff_slot then t.ff_slot.(iid) else -1 in
  if f < 0 then invalid_arg (Printf.sprintf "Simulator.%s: instance %d is not a flip-flop" fn iid);
  f

let ff_state t iid = of_code.(t.ff_state.(slot t "ff_state" iid))
let set_ff_state t iid v = t.ff_state.(slot t "set_ff_state" iid) <- code v

let propagate ?(mode = Active) t =
  let values = t.values in
  (* Seed flip-flop outputs from state. *)
  Array.iteri (fun f q -> if q >= 0 then values.(q) <- t.ff_state.(f)) t.ff_q;
  let standby = mode = Standby in
  for g = 0 to Array.length t.g_out - 1 do
    let fixed = t.g_standby.(g) in
    if standby && fixed >= 0 then values.(t.g_out.(g)) <- fixed
    else begin
      (* the inputs' codes, read as a base-3 number, index the table *)
      let row = ref 0 in
      for p = t.g_in_start.(g) to t.g_in_start.(g + 1) - 1 do
        row := (!row * 3) + values.(t.g_in.(p))
      done;
      values.(t.g_out.(g)) <- tables.(t.g_table.(g) + !row)
    end
  done

let clock_edge t =
  Array.iteri (fun f d -> if d >= 0 then t.ff_state.(f) <- t.values.(d)) t.ff_d

let code_of t nid = t.values.(nid)
let value t nid = of_code.(code_of t nid)

let output_values t = List.map (fun (name, nid) -> (name, value t nid)) (Netlist.outputs t.nl)

let reset ?(state = Logic.F) t =
  Array.fill t.ff_state 0 (Array.length t.ff_state) (code state);
  Array.fill t.values 0 (Array.length t.values) x

let floating_nets t =
  let acc = ref [] in
  Netlist.iter_nets t.nl (fun nid ->
      if t.values.(nid) = x && (Netlist.driver t.nl nid <> None || Netlist.is_pi t.nl nid)
      then acc := nid :: !acc);
  List.rev !acc
