type kind =
  | Inv
  | Buf
  | Nand2
  | Nand3
  | Nand4
  | Nor2
  | Nor3
  | And2
  | And3
  | Or2
  | Or3
  | Xor2
  | Xnor2
  | Aoi21
  | Oai21
  | Mux2
  | Dff
  | Clkbuf
  | Sleep_switch
  | Holder

let all =
  [
    Inv; Buf; Nand2; Nand3; Nand4; Nor2; Nor3; And2; And3; Or2; Or3; Xor2;
    Xnor2; Aoi21; Oai21; Mux2; Dff; Clkbuf; Sleep_switch; Holder;
  ]

let arity = function
  | Inv | Buf | Clkbuf -> 1
  | Nand2 | Nor2 | And2 | Or2 | Xor2 | Xnor2 -> 2
  | Nand3 | Nor3 | And3 | Or3 | Aoi21 | Oai21 | Mux2 -> 3
  | Nand4 -> 4
  | Dff -> 1
  | Sleep_switch | Holder -> 0

(* One shared array per pin list: netlist construction asks for these once
   per pin, so they are built once, not per call. *)
let pins_a = [| "A" |]
let pins_ab = [| "A"; "B" |]
let pins_abc = [| "A"; "B"; "C" |]
let pins_abcd = [| "A"; "B"; "C"; "D" |]
let pins_abs = [| "A"; "B"; "S" |]
let pins_d = [| "D" |]
let pins_q = [| "Q" |]
let pins_z = [| "Z" |]
let pins_none = [||]

let input_names = function
  | Inv | Buf | Clkbuf -> pins_a
  | Nand2 | Nor2 | And2 | Or2 | Xor2 | Xnor2 -> pins_ab
  | Nand3 | Nor3 | And3 | Or3 -> pins_abc
  | Nand4 -> pins_abcd
  | Aoi21 | Oai21 -> pins_abc
  | Mux2 -> pins_abs
  | Dff -> pins_d
  | Sleep_switch | Holder -> pins_none

let output_names = function
  | Dff -> pins_q
  | Sleep_switch -> pins_none
  | Holder -> pins_none
  | Inv | Buf | Clkbuf | Nand2 | Nand3 | Nand4 | Nor2 | Nor3 | And2 | And3
  | Or2 | Or3 | Xor2 | Xnor2 | Aoi21 | Oai21 | Mux2 ->
    pins_z

let is_sequential = function
  | Dff -> true
  | Inv | Buf | Clkbuf | Nand2 | Nand3 | Nand4 | Nor2 | Nor3 | And2 | And3
  | Or2 | Or3 | Xor2 | Xnor2 | Aoi21 | Oai21 | Mux2 | Sleep_switch | Holder ->
    false

let is_infrastructure = function
  | Sleep_switch | Holder -> true
  | Inv | Buf | Clkbuf | Nand2 | Nand3 | Nand4 | Nor2 | Nor3 | And2 | And3
  | Or2 | Or3 | Xor2 | Xnor2 | Aoi21 | Oai21 | Mux2 | Dff ->
    false

let eval kind inputs =
  let need n =
    if Array.length inputs <> n then
      invalid_arg
        (Printf.sprintf "Func.eval: %d inputs given, %d expected" (Array.length inputs) n)
  in
  match kind with
  | Inv -> need 1; not inputs.(0)
  | Buf | Clkbuf -> need 1; inputs.(0)
  | Nand2 -> need 2; not (inputs.(0) && inputs.(1))
  | Nand3 -> need 3; not (inputs.(0) && inputs.(1) && inputs.(2))
  | Nand4 -> need 4; not (inputs.(0) && inputs.(1) && inputs.(2) && inputs.(3))
  | Nor2 -> need 2; not (inputs.(0) || inputs.(1))
  | Nor3 -> need 3; not (inputs.(0) || inputs.(1) || inputs.(2))
  | And2 -> need 2; inputs.(0) && inputs.(1)
  | And3 -> need 3; inputs.(0) && inputs.(1) && inputs.(2)
  | Or2 -> need 2; inputs.(0) || inputs.(1)
  | Or3 -> need 3; inputs.(0) || inputs.(1) || inputs.(2)
  | Xor2 -> need 2; inputs.(0) <> inputs.(1)
  | Xnor2 -> need 2; inputs.(0) = inputs.(1)
  | Aoi21 -> need 3; not ((inputs.(0) && inputs.(1)) || inputs.(2))
  | Oai21 -> need 3; not ((inputs.(0) || inputs.(1)) && inputs.(2))
  | Mux2 -> need 3; if inputs.(2) then inputs.(1) else inputs.(0)
  | Dff -> invalid_arg "Func.eval: Dff is sequential"
  | Sleep_switch -> invalid_arg "Func.eval: Sleep_switch has no logic function"
  | Holder -> invalid_arg "Func.eval: Holder has no logic function"

let to_string = function
  | Inv -> "INV"
  | Buf -> "BUF"
  | Nand2 -> "NAND2"
  | Nand3 -> "NAND3"
  | Nand4 -> "NAND4"
  | Nor2 -> "NOR2"
  | Nor3 -> "NOR3"
  | And2 -> "AND2"
  | And3 -> "AND3"
  | Or2 -> "OR2"
  | Or3 -> "OR3"
  | Xor2 -> "XOR2"
  | Xnor2 -> "XNOR2"
  | Aoi21 -> "AOI21"
  | Oai21 -> "OAI21"
  | Mux2 -> "MUX2"
  | Dff -> "DFF"
  | Clkbuf -> "CLKBUF"
  | Sleep_switch -> "SWITCH"
  | Holder -> "HOLDER"

let of_string s =
  let canon = String.uppercase_ascii s in
  List.find_opt (fun k -> String.equal (to_string k) canon) all
