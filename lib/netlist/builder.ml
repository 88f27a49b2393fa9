module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Library = Smt_cell.Library

type t = { nl : Netlist.t; lib : Library.t }

let create ~name ~lib = { nl = Netlist.create ~name ~lib (); lib }

let netlist t = t.nl

let input ?clock t name = Netlist.add_input ?clock t.nl name
let output t name = Netlist.add_output t.nl name
let net t name = Netlist.add_net t.nl name

let instantiate t kind pins =
  let cell = Library.variant t.lib kind Vth.Low Vth.Plain in
  let name = Netlist.fresh_inst_name t.nl (String.lowercase_ascii (Func.to_string kind)) in
  Netlist.add_inst t.nl ~name cell pins

let gate_into t kind ins out =
  let names = Func.input_names kind in
  if Array.length names <> List.length ins then
    invalid_arg
      (Printf.sprintf "Builder.gate: %s takes %d inputs, %d given" (Func.to_string kind)
         (Array.length names) (List.length ins));
  let pins = List.mapi (fun i nid -> (names.(i), nid)) ins in
  ignore (instantiate t kind (pins @ [ ("Z", out) ]))

let gate t kind ins =
  let out = Netlist.fresh_net t.nl "n" in
  gate_into t kind ins out;
  out

let dff_into t ~d ~clk q =
  ignore (instantiate t Func.Dff [ ("D", d); ("CK", clk); ("Q", q) ])

let dff t ~d ~clk =
  let q = Netlist.fresh_net t.nl "q" in
  dff_into t ~d ~clk q;
  q

let not_ t a = gate t Func.Inv [ a ]
let and_ t a b = gate t Func.And2 [ a; b ]
let or_ t a b = gate t Func.Or2 [ a; b ]
let xor_ t a b = gate t Func.Xor2 [ a; b ]
let nand_ t a b = gate t Func.Nand2 [ a; b ]
let mux_ t ~sel a b = gate t Func.Mux2 [ a; b; sel ]

let reduce_tree t op nets =
  let rec level = function
    | [] -> invalid_arg "Builder.reduce_tree: empty"
    | [ x ] -> x
    | xs ->
      let rec pair acc = function
        | [] -> List.rev acc
        | [ x ] -> List.rev (x :: acc)
        | a :: b :: rest -> pair (op t a b :: acc) rest
      in
      level (pair [] xs)
  in
  level nets

let full_adder t ~a ~b ~cin =
  let axb = xor_ t a b in
  let sum = xor_ t axb cin in
  let c1 = and_ t a b in
  let c2 = and_ t axb cin in
  let cout = or_ t c1 c2 in
  (sum, cout)
