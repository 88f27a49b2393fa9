(* Quickstart: build a small registered circuit, run the improved
   Selective-MT flow on it, and inspect the result.

     dune exec examples/quickstart.exe *)

module Builder = Smt_netlist.Builder
module Func = Smt_cell.Func
module Flow = Smt_core.Flow

let () =
  let lib = Smt_cell.Library.default () in

  (* 1. Build a netlist: a tiny registered datapath. Generators for larger
     circuits live in Smt_circuits. *)
  let b = Builder.create ~name:"quickstart" ~lib in
  let clk = Builder.input ~clock:true b "clk" in
  let x = Builder.input b "x" in
  let y = Builder.input b "y" in
  let z = Builder.input b "z" in
  let qx = Builder.dff b ~d:x ~clk in
  let qy = Builder.dff b ~d:y ~clk in
  let qz = Builder.dff b ~d:z ~clk in
  let s, c = Builder.full_adder b ~a:qx ~b:qy ~cin:qz in
  let qs = Builder.dff b ~d:s ~clk in
  let qc = Builder.dff b ~d:c ~clk in
  let sum = Builder.output b "sum" in
  let carry = Builder.output b "carry" in
  Builder.gate_into b Func.Buf [ qs ] sum;
  Builder.gate_into b Func.Buf [ qc ] carry;
  let nl = Builder.netlist b in

  (* 2. Run the paper's improved Selective-MT flow: placement, Dual-Vth
     style replacement, MT conversion, switch clustering & sizing, routing
     (CTS + MTE buffering + extraction), post-route re-optimization, hold
     ECO. The flow mutates the netlist. *)
  let report = Flow.run Flow.Improved_smt nl in

  (* 3. Inspect the outcome. *)
  Format.printf "%a@." Flow.pp_report report;
  Printf.printf "\nstage progression:\n";
  List.iter
    (fun (s : Flow.stage) ->
      Printf.printf "  %-55s area=%7.1f  standby=%8.1f nW  wns=%7.1f ps\n"
        s.Flow.stage_name s.Flow.stage_area s.Flow.stage_standby_nw s.Flow.stage_wns)
    report.Flow.stages;

  (* 4. The transformed netlist is ordinary data: dump it. *)
  print_newline ();
  print_string (Smt_netlist.Writer.to_string nl)
