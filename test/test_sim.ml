module Netlist = Smt_netlist.Netlist
module Builder = Smt_netlist.Builder
module Logic = Smt_sim.Logic
module Simulator = Smt_sim.Simulator
module Equiv = Smt_sim.Equiv
module Activity = Smt_sim.Activity
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Library = Smt_cell.Library
module Generators = Smt_circuits.Generators

let lib = Library.default ()

let value = Alcotest.testable (fun fmt v -> Format.pp_print_char fmt (Logic.to_char v)) Logic.equal

(* --- three-valued logic --- *)

let test_logic_basics () =
  Alcotest.check value "of_bool true" Logic.T (Logic.of_bool true);
  Alcotest.(check (option bool)) "to_bool x" None (Logic.to_bool_opt Logic.X);
  Alcotest.(check (option bool)) "to_bool f" (Some false) (Logic.to_bool_opt Logic.F);
  Alcotest.(check char) "char" 'x' (Logic.to_char Logic.X)

let test_x_propagation_controlled () =
  (* NAND with one input 0 is 1 regardless of the X. *)
  Alcotest.check value "nand(0,x)=1" Logic.T (Logic.eval Func.Nand2 [| Logic.F; Logic.X |]);
  Alcotest.check value "and(0,x)=0" Logic.F (Logic.eval Func.And2 [| Logic.F; Logic.X |]);
  Alcotest.check value "or(1,x)=1" Logic.T (Logic.eval Func.Or2 [| Logic.T; Logic.X |]);
  Alcotest.check value "nor(1,x)=0" Logic.F (Logic.eval Func.Nor2 [| Logic.T; Logic.X |])

let test_x_propagation_sensitized () =
  Alcotest.check value "nand(1,x)=x" Logic.X (Logic.eval Func.Nand2 [| Logic.T; Logic.X |]);
  Alcotest.check value "xor(0,x)=x" Logic.X (Logic.eval Func.Xor2 [| Logic.F; Logic.X |]);
  Alcotest.check value "inv(x)=x" Logic.X (Logic.eval Func.Inv [| Logic.X |]);
  (* mux with equal data is insensitive to an unknown select *)
  Alcotest.check value "mux(a,a,x)=a" Logic.T
    (Logic.eval Func.Mux2 [| Logic.T; Logic.T; Logic.X |]);
  Alcotest.check value "mux(a,b,x)=x" Logic.X
    (Logic.eval Func.Mux2 [| Logic.T; Logic.F; Logic.X |])

(* --- combinational simulation: c17 against a reference model --- *)

let c17_reference g1 g2 g3 g4 g5 =
  let nand a b = not (a && b) in
  let n10 = nand g1 g3 in
  let n11 = nand g3 g4 in
  let n16 = nand g2 n11 in
  let n19 = nand n11 g5 in
  (nand n10 n16, nand n16 n19)

let test_c17_exhaustive () =
  let nl = Generators.c17 lib in
  let sim = Simulator.create nl in
  for mask = 0 to 31 do
    let bit i = mask land (1 lsl i) <> 0 in
    Simulator.set_inputs sim
      (List.mapi (fun i name -> (name, Logic.of_bool (bit i))) [ "G1"; "G2"; "G3"; "G4"; "G5" ]);
    Simulator.propagate sim;
    let e22, e23 = c17_reference (bit 0) (bit 1) (bit 2) (bit 3) (bit 4) in
    let outs = Simulator.output_values sim in
    Alcotest.check value "G22" (Logic.of_bool e22) (List.assoc "G22" outs);
    Alcotest.check value "G23" (Logic.of_bool e23) (List.assoc "G23" outs)
  done

let test_set_input_guards () =
  let nl = Generators.c17 lib in
  let sim = Simulator.create nl in
  Alcotest.(check bool) "non-PI rejected" true
    (try
       Simulator.set_inputs sim [ ("G22", Logic.T) ];
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown rejected" true
    (try
       Simulator.set_inputs sim [ ("NOPE", Logic.T) ];
       false
     with Invalid_argument _ -> true)

(* --- sequential simulation --- *)

let test_dff_pipeline () =
  let b = Builder.create ~name:"pipe" ~lib in
  let clk = Builder.input ~clock:true b "clk" in
  let d = Builder.input b "d" in
  let q1 = Builder.dff b ~d ~clk in
  let q2 = Builder.dff b ~d:q1 ~clk in
  let o = Builder.output b "o" in
  Builder.gate_into b Func.Buf [ q2 ] o;
  let nl = Builder.netlist b in
  let sim = Simulator.create nl in
  Simulator.reset sim;
  let feed v =
    Simulator.set_inputs sim [ ("d", v) ];
    Simulator.propagate sim;
    let out = List.assoc "o" (Simulator.output_values sim) in
    Simulator.clock_edge sim;
    out
  in
  let o1 = feed Logic.T in
  let o2 = feed Logic.F in
  let o3 = feed Logic.F in
  let o4 = feed Logic.F in
  Alcotest.check value "cycle1: reset state" Logic.F o1;
  Alcotest.check value "cycle2: still old" Logic.F o2;
  Alcotest.check value "cycle3: T arrives after 2 edges" Logic.T o3;
  Alcotest.check value "cycle4: F follows" Logic.F o4

let test_counter_counts () =
  let nl = Generators.counter ~name:"cnt" ~bits:4 lib in
  let sim = Simulator.create nl in
  Simulator.reset sim;
  let read () =
    let outs = Simulator.output_values sim in
    List.fold_left
      (fun acc i ->
        match List.assoc (Printf.sprintf "count%d" i) outs with
        | Logic.T -> acc lor (1 lsl i)
        | Logic.F | Logic.X -> acc)
      0 [ 0; 1; 2; 3 ]
  in
  Simulator.set_inputs sim [ ("en", Logic.T) ];
  for expected = 0 to 9 do
    Simulator.propagate sim;
    Alcotest.(check int) (Printf.sprintf "count at cycle %d" expected) expected (read ());
    Simulator.clock_edge sim
  done;
  (* disable: value must hold *)
  Simulator.set_inputs sim [ ("en", Logic.F) ];
  Simulator.propagate sim;
  let frozen = read () in
  Simulator.clock_edge sim;
  Simulator.propagate sim;
  Alcotest.(check int) "hold when disabled" frozen (read ())

let test_ff_state_access () =
  let b = Builder.create ~name:"s" ~lib in
  let clk = Builder.input ~clock:true b "clk" in
  let d = Builder.input b "d" in
  let q = Builder.dff b ~d ~clk in
  let o = Builder.output b "o" in
  Builder.gate_into b Func.Buf [ q ] o;
  let nl = Builder.netlist b in
  let sim = Simulator.create nl in
  let ff =
    List.find
      (fun iid -> (Netlist.cell nl iid).Smt_cell.Cell.kind = Func.Dff)
      (Netlist.live_insts nl)
  in
  Simulator.set_ff_state sim ff Logic.T;
  Simulator.set_inputs sim [ ("d", Logic.F) ];
  Simulator.propagate sim;
  Alcotest.check value "state visible" Logic.T (List.assoc "o" (Simulator.output_values sim));
  Alcotest.check value "ff_state reads back" Logic.T (Simulator.ff_state sim ff);
  let buf =
    List.find
      (fun iid -> (Netlist.cell nl iid).Smt_cell.Cell.kind = Func.Buf)
      (Netlist.live_insts nl)
  in
  let rejects f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "ff_state on a non-flip-flop rejected" true
    (rejects (fun () -> ignore (Simulator.ff_state sim buf)));
  Alcotest.(check bool) "set_ff_state on a non-flip-flop rejected" true
    (rejects (fun () -> Simulator.set_ff_state sim buf Logic.T))

(* --- standby mode: the floating-net hazard and holders --- *)

let standby_fixture ~with_holder =
  let nl = Netlist.create ~name:"stby" ~lib in
  let a = Netlist.add_input nl "a" in
  let mid = Netlist.add_net nl "mid" in
  let z = Netlist.add_output nl "z" in
  let mte = Netlist.add_input nl "MTE" in
  let mt = Library.variant lib Func.Inv Vth.Low Vth.Mt_vgnd in
  let plain = Library.variant lib Func.Inv Vth.High Vth.Plain in
  ignore (Netlist.add_inst nl ~name:"m" mt [ ("A", a); ("Z", mid) ]);
  ignore (Netlist.add_inst nl ~name:"p" plain [ ("A", mid); ("Z", z) ]);
  if with_holder then
    ignore (Netlist.add_inst nl ~name:"h" (Library.holder lib) [ ("MTE", mte); ("Z", mid) ]);
  nl

let test_standby_floats_without_holder () =
  let nl = standby_fixture ~with_holder:false in
  let sim = Simulator.create nl in
  Simulator.set_inputs sim [ ("a", Logic.T); ("MTE", Logic.T) ];
  Simulator.propagate ~mode:Simulator.Standby sim;
  let mid = Option.get (Netlist.find_net nl "mid") in
  Alcotest.check value "MT output floats" Logic.X (Simulator.value sim mid);
  Alcotest.(check bool) "floating nets reported" true
    (List.mem mid (Simulator.floating_nets sim))

let test_standby_held_with_holder () =
  let nl = standby_fixture ~with_holder:true in
  let sim = Simulator.create nl in
  Simulator.set_inputs sim [ ("a", Logic.T); ("MTE", Logic.T) ];
  Simulator.propagate ~mode:Simulator.Standby sim;
  let mid = Option.get (Netlist.find_net nl "mid") in
  Alcotest.check value "holder forces 1" Logic.T (Simulator.value sim mid);
  let z = Option.get (Netlist.find_net nl "z") in
  Alcotest.check value "downstream cell sees defined input" Logic.F (Simulator.value sim z)

let test_standby_embedded_holds_itself () =
  let nl = Netlist.create ~name:"emb" ~lib in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  let mte = Netlist.add_input nl "MTE" in
  let emb = Library.variant lib Func.Inv Vth.Low Vth.Mt_embedded in
  ignore (Netlist.add_inst nl ~name:"m" emb [ ("A", a); ("Z", z); ("MTE", mte) ]);
  let sim = Simulator.create nl in
  Simulator.set_inputs sim [ ("a", Logic.T); ("MTE", Logic.T) ];
  Simulator.propagate ~mode:Simulator.Standby sim;
  let z = Option.get (Netlist.find_net nl "z") in
  Alcotest.check value "embedded MT holds its output" Logic.T (Simulator.value sim z)

let test_active_mode_ignores_mt () =
  let nl = standby_fixture ~with_holder:false in
  let sim = Simulator.create nl in
  Simulator.set_inputs sim [ ("a", Logic.T); ("MTE", Logic.F) ];
  Simulator.propagate sim;
  let z = Option.get (Netlist.find_net nl "z") in
  (* inv(inv(1)) = 1: MT cells compute normally in active mode *)
  Alcotest.check value "active computes" Logic.T (Simulator.value sim z)

(* --- equivalence checking --- *)

let test_equiv_identical () =
  let a = Generators.c17 lib and b = Generators.c17 lib in
  Alcotest.(check bool) "c17 = c17" true (Equiv.equivalent a b)

let test_equiv_detects_mutation () =
  let a = Generators.c17 lib in
  let b = Netlist.create ~name:"c17" ~lib in
  (* c17 with one NAND replaced by NOR: not equivalent *)
  let g1 = Netlist.add_input b "G1" in
  let g2 = Netlist.add_input b "G2" in
  let g3 = Netlist.add_input b "G3" in
  let g4 = Netlist.add_input b "G4" in
  let g5 = Netlist.add_input b "G5" in
  let o1 = Netlist.add_output b "G22" in
  let o2 = Netlist.add_output b "G23" in
  let lv k = Library.variant lib k Vth.Low Vth.Plain in
  let n10 = Netlist.add_net b "n10" in
  let n11 = Netlist.add_net b "n11" in
  let n16 = Netlist.add_net b "n16" in
  let n19 = Netlist.add_net b "n19" in
  ignore (Netlist.add_inst b ~name:"u1" (lv Func.Nor2) [ ("A", g1); ("B", g3); ("Z", n10) ]);
  ignore (Netlist.add_inst b ~name:"u2" (lv Func.Nand2) [ ("A", g3); ("B", g4); ("Z", n11) ]);
  ignore (Netlist.add_inst b ~name:"u3" (lv Func.Nand2) [ ("A", g2); ("B", n11); ("Z", n16) ]);
  ignore (Netlist.add_inst b ~name:"u4" (lv Func.Nand2) [ ("A", n11); ("B", g5); ("Z", n19) ]);
  ignore (Netlist.add_inst b ~name:"u5" (lv Func.Nand2) [ ("A", n10); ("B", n16); ("Z", o1) ]);
  ignore (Netlist.add_inst b ~name:"u6" (lv Func.Nand2) [ ("A", n16); ("B", n19); ("Z", o2) ]);
  (match Equiv.check a b with
  | Equiv.Equivalent -> Alcotest.fail "mutation not detected"
  | Equiv.Mismatch { output; _ } ->
    Alcotest.(check bool) "names an output" true (output = "G22" || output = "G23"))

let test_equiv_interface_mismatch () =
  let a = Generators.c17 lib in
  let b = Generators.counter ~name:"cnt" ~bits:2 lib in
  Alcotest.(check bool) "different interfaces raise" true
    (try
       ignore (Equiv.equivalent a b);
       false
     with Invalid_argument _ -> true)

let test_equiv_sequential () =
  let a = Generators.counter ~name:"cnt" ~bits:5 lib in
  let b = Generators.counter ~name:"cnt" ~bits:5 lib in
  Alcotest.(check bool) "counters equivalent" true (Equiv.equivalent ~vectors:32 a b)

let test_multiplier_correct () =
  (* 4x4 multiplier against integer multiplication, exhaustively, through
     the registered pipeline (feed, clock, read). *)
  let nl = Generators.multiplier ~name:"m4" ~bits:4 lib in
  let sim = Simulator.create nl in
  for x = 0 to 15 do
    for y = 0 to 15 do
      Simulator.reset sim;
      let vec =
        List.init 4 (fun i -> (Printf.sprintf "a%d" i, Logic.of_bool (x land (1 lsl i) <> 0)))
        @ List.init 4 (fun i -> (Printf.sprintf "b%d" i, Logic.of_bool (y land (1 lsl i) <> 0)))
      in
      Simulator.set_inputs sim vec;
      Simulator.propagate sim;
      Simulator.clock_edge sim;
      (* operands latched; combinational product now at the output FFs *)
      Simulator.propagate sim;
      Simulator.clock_edge sim;
      Simulator.propagate sim;
      let outs = Simulator.output_values sim in
      let p =
        List.fold_left
          (fun acc i ->
            match List.assoc_opt (Printf.sprintf "p%d" i) outs with
            | Some Logic.T -> acc lor (1 lsl i)
            | Some (Logic.F | Logic.X) | None -> acc)
          0
          (List.init 8 Fun.id)
      in
      Alcotest.(check int) (Printf.sprintf "%d*%d" x y) (x * y) p
    done
  done

let test_adder_correct () =
  let nl = Generators.ripple_adder ~registered:false ~name:"add4" ~bits:4 lib in
  let sim = Simulator.create nl in
  for x = 0 to 15 do
    for y = 0 to 15 do
      let vec =
        (("cin", Logic.F)
        :: List.init 4 (fun i -> (Printf.sprintf "a%d" i, Logic.of_bool (x land (1 lsl i) <> 0))))
        @ List.init 4 (fun i -> (Printf.sprintf "b%d" i, Logic.of_bool (y land (1 lsl i) <> 0)))
      in
      Simulator.set_inputs sim vec;
      Simulator.propagate sim;
      let outs = Simulator.output_values sim in
      let s =
        List.fold_left
          (fun acc i ->
            match List.assoc_opt (Printf.sprintf "s%d" i) outs with
            | Some Logic.T -> acc lor (1 lsl i)
            | Some (Logic.F | Logic.X) | None -> acc)
          0
          (List.init 4 Fun.id)
      in
      let s = match List.assoc "cout" outs with Logic.T -> s lor 16 | Logic.F | Logic.X -> s in
      Alcotest.(check int) (Printf.sprintf "%d+%d" x y) (x + y) s
    done
  done

(* --- activity --- *)

let test_activity_bounds () =
  let nl = Generators.c17 lib in
  let act = Activity.estimate ~cycles:100 nl in
  Netlist.iter_insts nl (fun iid ->
      let f = Activity.factor act iid in
      Alcotest.(check bool) "factor in [0,1]" true (f >= 0.0 && f <= 1.0));
  Alcotest.(check bool) "some switching happens" true (Activity.average act > 0.0)

let test_activity_deterministic () =
  let nl = Generators.c17 lib in
  let a1 = Activity.estimate ~cycles:64 ~seed:3 nl in
  let a2 = Activity.estimate ~cycles:64 ~seed:3 nl in
  Netlist.iter_insts nl (fun iid ->
      Alcotest.(check (float 1e-12)) "same seed, same activity"
        (Activity.factor a1 iid) (Activity.factor a2 iid))

(* The flow's activity settings (128 cycles, seed 1) pinned to exact
   counts: the total of per-instance toggle counts and the number of
   instances that toggle at all, on the paper's circuits as generated and
   after the improved flow. *)
let test_activity_pinned () =
  let counts nl =
    let act = Activity.estimate ~cycles:128 ~seed:1 nl in
    let toggles iid = int_of_float (Float.round (Activity.factor act iid *. 127.0)) in
    let total = ref 0 and toggling = ref 0 in
    Netlist.iter_insts nl (fun iid ->
        total := !total + toggles iid;
        if toggles iid > 0 then incr toggling);
    (!total, !toggling)
  in
  List.iter
    (fun (name, gen, fresh, flowed) ->
      let nl = gen lib in
      Alcotest.(check (pair int int)) (name ^ " fresh") fresh (counts nl);
      ignore (Smt_core.Flow.run Smt_core.Flow.Improved_smt nl);
      Alcotest.(check (pair int int)) (name ^ " after the improved flow") flowed (counts nl))
    [
      ("circuit_a", Smt_circuits.Suite.circuit_a, (55_150, 1_231), (82_625, 1_629));
      ("circuit_b", Smt_circuits.Suite.circuit_b, (31_393, 670), (60_182, 1_126));
    ]

let () =
  Alcotest.run "smt_sim"
    [
      ( "logic",
        [
          Alcotest.test_case "basics" `Quick test_logic_basics;
          Alcotest.test_case "x controlled" `Quick test_x_propagation_controlled;
          Alcotest.test_case "x sensitized" `Quick test_x_propagation_sensitized;
        ] );
      ( "combinational",
        [
          Alcotest.test_case "c17 exhaustive" `Quick test_c17_exhaustive;
          Alcotest.test_case "input guards" `Quick test_set_input_guards;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "dff pipeline" `Quick test_dff_pipeline;
          Alcotest.test_case "counter counts" `Quick test_counter_counts;
          Alcotest.test_case "ff state access" `Quick test_ff_state_access;
        ] );
      ( "standby",
        [
          Alcotest.test_case "floats without holder" `Quick test_standby_floats_without_holder;
          Alcotest.test_case "held with holder" `Quick test_standby_held_with_holder;
          Alcotest.test_case "embedded holds itself" `Quick test_standby_embedded_holds_itself;
          Alcotest.test_case "active mode computes" `Quick test_active_mode_ignores_mt;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "identical circuits" `Quick test_equiv_identical;
          Alcotest.test_case "detects mutation" `Quick test_equiv_detects_mutation;
          Alcotest.test_case "interface mismatch" `Quick test_equiv_interface_mismatch;
          Alcotest.test_case "sequential circuits" `Quick test_equiv_sequential;
          Alcotest.test_case "multiplier arithmetic" `Slow test_multiplier_correct;
          Alcotest.test_case "adder arithmetic" `Quick test_adder_correct;
        ] );
      ( "activity",
        [
          Alcotest.test_case "bounds" `Quick test_activity_bounds;
          Alcotest.test_case "deterministic" `Quick test_activity_deterministic;
          Alcotest.test_case "pinned counts" `Quick test_activity_pinned;
        ] );
    ]
