module Netlist = Smt_netlist.Netlist
module Builder = Smt_netlist.Builder
module Check = Smt_check.Drc
module Nl_stats = Smt_netlist.Nl_stats
module Writer = Smt_netlist.Writer
module Parser = Smt_netlist.Parser
module Clone = Smt_netlist.Clone
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Cell = Smt_cell.Cell
module Library = Smt_cell.Library

let lib = Library.default ()
let lv k = Library.variant lib k Vth.Low Vth.Plain

let fresh name = Netlist.create ~name ~lib ()

(* --- construction basics --- *)

let test_add_net_and_ports () =
  let nl = fresh "t" in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  let w = Netlist.add_net nl "w" in
  Alcotest.(check int) "3 nets" 3 (Netlist.net_count nl);
  Alcotest.(check bool) "a is pi" true (Netlist.is_pi nl a);
  Alcotest.(check bool) "z is po" true (Netlist.is_po nl z);
  Alcotest.(check bool) "w neither" false (Netlist.is_pi nl w || Netlist.is_po nl w);
  Alcotest.(check (option int)) "find" (Some w) (Netlist.find_net nl "w");
  Alcotest.(check string) "name" "w" (Netlist.net_name nl w)

let test_duplicate_net_rejected () =
  let nl = fresh "t" in
  ignore (Netlist.add_net nl "x");
  Alcotest.(check bool) "dup raises" true
    (try
       ignore (Netlist.add_net nl "x");
       false
     with Invalid_argument _ -> true)

let test_clock_marking () =
  let nl = fresh "t" in
  let clk = Netlist.add_input ~clock:true nl "clk" in
  Alcotest.(check bool) "clock flagged" true (Netlist.is_clock_net nl clk);
  Alcotest.(check (option int)) "clock_net" (Some clk) (Netlist.clock_net nl);
  let other = Netlist.add_net nl "late" in
  Netlist.mark_clock nl other;
  Alcotest.(check bool) "late marking" true (Netlist.is_clock_net nl other);
  Alcotest.(check (option int)) "root clock unchanged" (Some clk) (Netlist.clock_net nl)

let test_add_inst_connectivity () =
  let nl = fresh "t" in
  let a = Netlist.add_input nl "a" in
  let b = Netlist.add_input nl "b" in
  let z = Netlist.add_output nl "z" in
  let g = Netlist.add_inst nl ~name:"g1" (lv Func.Nand2) [ ("A", a); ("B", b); ("Z", z) ] in
  (match Netlist.driver nl z with
  | Some p ->
    Alcotest.(check int) "driver inst" g p.Netlist.inst;
    Alcotest.(check string) "driver pin" "Z" p.Netlist.pin_name
  | None -> Alcotest.fail "z undriven");
  Alcotest.(check int) "a has one sink" 1 (List.length (Netlist.sinks nl a));
  Alcotest.(check (option int)) "pin A" (Some a) (Netlist.pin_net nl g "A");
  Alcotest.(check (option int)) "output net" (Some z) (Netlist.output_net nl g)

let test_multiple_driver_rejected () =
  let nl = fresh "t" in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  ignore (Netlist.add_inst nl ~name:"g1" (lv Func.Inv) [ ("A", a); ("Z", z) ]);
  Alcotest.(check bool) "second driver raises" true
    (try
       ignore (Netlist.add_inst nl ~name:"g2" (lv Func.Inv) [ ("A", a); ("Z", z) ]);
       false
     with Invalid_argument _ -> true)

let test_driving_pi_rejected () =
  let nl = fresh "t" in
  let a = Netlist.add_input nl "a" in
  Alcotest.(check bool) "driving a PI raises" true
    (try
       ignore (Netlist.add_inst nl ~name:"g" (lv Func.Inv) [ ("A", a); ("Z", a) ]);
       false
     with Invalid_argument _ -> true)

let test_unknown_pin_rejected () =
  let nl = fresh "t" in
  let a = Netlist.add_input nl "a" in
  Alcotest.(check bool) "bad pin raises" true
    (try
       ignore (Netlist.add_inst nl ~name:"g" (lv Func.Inv) [ ("Q", a) ]);
       false
     with Invalid_argument _ -> true)

let test_connect_disconnect () =
  let nl = fresh "t" in
  let a = Netlist.add_input nl "a" in
  let b = Netlist.add_input nl "b" in
  let z = Netlist.add_output nl "z" in
  let g = Netlist.add_inst nl ~name:"g" (lv Func.Inv) [ ("A", a); ("Z", z) ] in
  Netlist.connect nl g "A" b;
  Alcotest.(check (option int)) "moved to b" (Some b) (Netlist.pin_net nl g "A");
  Alcotest.(check int) "a has no sinks" 0 (List.length (Netlist.sinks nl a));
  Netlist.disconnect nl g "A";
  Alcotest.(check (option int)) "gone" None (Netlist.pin_net nl g "A");
  Alcotest.(check int) "b freed" 0 (List.length (Netlist.sinks nl b))

let test_move_sink () =
  let nl = fresh "t" in
  let a = Netlist.add_input nl "a" in
  let b = Netlist.add_net nl "b" in
  let z = Netlist.add_output nl "z" in
  let g = Netlist.add_inst nl ~name:"g" (lv Func.Inv) [ ("A", a); ("Z", z) ] in
  let pin = { Netlist.inst = g; Netlist.pin_name = "A" } in
  Netlist.move_sink nl ~from_net:a pin ~to_net:b;
  Alcotest.(check (option int)) "now on b" (Some b) (Netlist.pin_net nl g "A");
  Alcotest.(check bool) "bad move raises" true
    (try
       Netlist.move_sink nl ~from_net:a pin ~to_net:b;
       false
     with Invalid_argument _ -> true)

let test_replace_cell () =
  let nl = fresh "t" in
  let a = Netlist.add_input nl "a" in
  let b = Netlist.add_input nl "b" in
  let z = Netlist.add_output nl "z" in
  let g = Netlist.add_inst nl ~name:"g" (lv Func.Nand2) [ ("A", a); ("B", b); ("Z", z) ] in
  Netlist.replace_cell nl g (Library.variant lib Func.Nand2 Vth.High Vth.Plain);
  Alcotest.(check bool) "now high vth" true ((Netlist.cell nl g).Cell.vth = Vth.High);
  Alcotest.(check bool) "incompatible raises" true
    (try
       Netlist.replace_cell nl g (lv Func.Inv);
       false
     with Invalid_argument _ -> true)

let test_remove_inst () =
  let nl = fresh "t" in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  let g = Netlist.add_inst nl ~name:"g" (lv Func.Inv) [ ("A", a); ("Z", z) ] in
  Netlist.remove_inst nl g;
  Alcotest.(check bool) "dead" true (Netlist.is_dead nl g);
  Alcotest.(check (option int)) "name freed" None (Netlist.find_inst nl "g");
  Alcotest.(check bool) "net undriven" true (Netlist.driver nl z = None);
  Alcotest.(check (list int)) "not in live list" [] (Netlist.live_insts nl);
  (* the freed name can be reused, and the net can be re-driven *)
  let g2 = Netlist.add_inst nl ~name:"g" (lv Func.Inv) [ ("A", a); ("Z", z) ] in
  Alcotest.(check bool) "rebuilt" true (not (Netlist.is_dead nl g2))

let test_fresh_names () =
  let nl = fresh "t" in
  let n1 = Netlist.fresh_net nl "n" in
  let n2 = Netlist.fresh_net nl "n" in
  Alcotest.(check bool) "distinct nets" true
    (Netlist.net_name nl n1 <> Netlist.net_name nl n2);
  let i1 = Netlist.fresh_inst_name nl "u" in
  let i2 = Netlist.fresh_inst_name nl "u" in
  Alcotest.(check bool) "distinct insts" true (i1 <> i2)

(* --- vgnd / holder plumbing --- *)

let mt_cell kind = Library.variant lib kind Vth.Low Vth.Mt_vgnd

let test_vgnd_attach () =
  let nl = fresh "t" in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  let mte = Netlist.add_input nl "MTE" in
  let g = Netlist.add_inst nl ~name:"g" (mt_cell Func.Inv) [ ("A", a); ("Z", z) ] in
  let sw =
    Netlist.add_inst nl ~name:"sw0" (Library.switch lib ~width:2.0) [ ("MTE", mte) ]
  in
  Netlist.set_vgnd_switch nl g (Some sw);
  Alcotest.(check (option int)) "attached" (Some sw) (Netlist.vgnd_switch nl g);
  Alcotest.(check (list int)) "members" [ g ] (Netlist.switch_members nl sw);
  Alcotest.(check (list int)) "switches" [ sw ] (Netlist.switches nl);
  Netlist.set_vgnd_switch nl g None;
  Alcotest.(check (option int)) "detached" None (Netlist.vgnd_switch nl g)

let test_vgnd_requires_port () =
  let nl = fresh "t" in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  let mte = Netlist.add_input nl "MTE" in
  let g = Netlist.add_inst nl ~name:"g" (lv Func.Inv) [ ("A", a); ("Z", z) ] in
  let sw = Netlist.add_inst nl ~name:"sw0" (Library.switch lib ~width:1.0) [ ("MTE", mte) ] in
  Alcotest.(check bool) "plain cell rejected" true
    (try
       Netlist.set_vgnd_switch nl g (Some sw);
       false
     with Invalid_argument _ -> true)

let test_vgnd_requires_switch () =
  let nl = fresh "t" in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  let g = Netlist.add_inst nl ~name:"g" (mt_cell Func.Inv) [ ("A", a); ("Z", z) ] in
  let g2 = Netlist.add_inst nl ~name:"g2" (lv Func.Inv) [ ("A", z); ("Z", Netlist.add_output nl "z2") ] in
  Alcotest.(check bool) "non-switch rejected" true
    (try
       Netlist.set_vgnd_switch nl g (Some g2);
       false
     with Invalid_argument _ -> true)

let test_holder_attachment () =
  let nl = fresh "t" in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  let mte = Netlist.add_input nl "MTE" in
  ignore (Netlist.add_inst nl ~name:"g" (mt_cell Func.Inv) [ ("A", a); ("Z", z) ]);
  let h = Netlist.add_inst nl ~name:"h" (Library.holder lib) [ ("MTE", mte); ("Z", z) ] in
  Alcotest.(check (option int)) "holder recorded" (Some h) (Netlist.holder_of nl z);
  (* holder is not a driver: the driver is still the gate *)
  Alcotest.(check bool) "driver unchanged" true (Netlist.driver nl z <> None)

let test_embedded_mte_pin () =
  let nl = fresh "t" in
  let a = Netlist.add_input nl "a" in
  let b = Netlist.add_input nl "b" in
  let z = Netlist.add_output nl "z" in
  let mte = Netlist.add_input nl "MTE" in
  let emb = Library.variant lib Func.Nand2 Vth.Low Vth.Mt_embedded in
  let g =
    Netlist.add_inst nl ~name:"g" emb [ ("A", a); ("B", b); ("Z", z); ("MTE", mte) ]
  in
  Alcotest.(check (option int)) "MTE connected" (Some mte) (Netlist.pin_net nl g "MTE");
  Alcotest.(check bool) "g sinks MTE" true
    (List.exists (fun (p : Netlist.pin) -> p.Netlist.inst = g) (Netlist.sinks nl mte))

(* --- traversal --- *)

let test_topo_order () =
  let b = Builder.create ~name:"topo" ~lib in
  let a = Builder.input b "a" in
  let n1 = Builder.not_ b a in
  let n2 = Builder.not_ b n1 in
  let o = Builder.output b "o" in
  Builder.gate_into b Func.Buf [ n2 ] o;
  let nl = Builder.netlist b in
  let order = Netlist.topo_order nl in
  Alcotest.(check int) "3 comb cells" 3 (Array.length order);
  (* each instance appears after its fanins *)
  let pos = Hashtbl.create 7 in
  Array.iteri (fun i iid -> Hashtbl.replace pos iid i) order;
  Array.iter
    (fun iid ->
      List.iter
        (fun pred ->
          Alcotest.(check bool) "fanin first" true
            (Hashtbl.find pos pred < Hashtbl.find pos iid))
        (Netlist.fanin_insts nl iid))
    order

let test_cycle_detection () =
  let nl = fresh "cyc" in
  let a = Netlist.add_net nl "a" in
  let b = Netlist.add_net nl "b" in
  ignore (Netlist.add_inst nl ~name:"g1" (lv Func.Inv) [ ("A", a); ("Z", b) ]);
  ignore (Netlist.add_inst nl ~name:"g2" (lv Func.Inv) [ ("A", b); ("Z", a) ]);
  (* both gates are stuck; the first in id order names the cycle *)
  Alcotest.(check (option string)) "cycle raises, naming g1" (Some "g1")
    (match Netlist.topo_order nl with
    | _ -> None
    | exception Netlist.Combinational_cycle name -> Some name)

let test_ff_breaks_cycle () =
  let nl = Smt_circuits.Generators.counter ~name:"cnt" ~bits:4 lib in
  (* counter has feedback through flip-flops: must levelize fine *)
  Alcotest.(check bool) "no combinational cycle" true (Netlist.topo_order nl <> [||])

let test_fanout_fanin () =
  let b = Builder.create ~name:"f" ~lib in
  let a = Builder.input b "a" in
  let x = Builder.not_ b a in
  let y1 = Builder.not_ b x in
  let y2 = Builder.not_ b x in
  let o1 = Builder.output b "o1" and o2 = Builder.output b "o2" in
  Builder.gate_into b Func.Buf [ y1 ] o1;
  Builder.gate_into b Func.Buf [ y2 ] o2;
  let nl = Builder.netlist b in
  let inv0 =
    List.find
      (fun iid -> Netlist.pin_net nl iid "A" = Some a)
      (Netlist.live_insts nl)
  in
  Alcotest.(check int) "two fanouts" 2
    (List.length
       (Option.fold ~none:[] ~some:(Netlist.sinks nl) (Netlist.output_net nl inv0)));
  Alcotest.(check (list int)) "no fanin from PI" [] (Netlist.fanin_insts nl inv0)

(* --- builder combinators --- *)

let test_reduce_tree () =
  let b = Builder.create ~name:"rt" ~lib in
  let ins = List.init 7 (fun i -> Builder.input b (Printf.sprintf "i%d" i)) in
  let out = Builder.reduce_tree b Builder.and_ ins in
  let po = Builder.output b "o" in
  Builder.gate_into b Func.Buf [ out ] po;
  let nl = Builder.netlist b in
  Alcotest.(check (list string)) "valid" [] (Check.validate nl);
  (* 7-input AND: output is 1 iff all inputs are 1 *)
  let sim = Smt_sim.Simulator.create nl in
  let drive mask =
    Smt_sim.Simulator.set_inputs sim
      (List.mapi
         (fun i _ -> (Printf.sprintf "i%d" i, Smt_sim.Logic.of_bool (mask land (1 lsl i) <> 0)))
         ins);
    Smt_sim.Simulator.propagate sim;
    List.assoc "o" (Smt_sim.Simulator.output_values sim)
  in
  Alcotest.(check bool) "all ones" true (drive 0x7f = Smt_sim.Logic.T);
  Alcotest.(check bool) "one zero" true (drive 0x7e = Smt_sim.Logic.F);
  Alcotest.(check bool) "balanced depth" true
    (let sta = Smt_sta.Sta.analyze (Smt_sta.Sta.config ~clock_period:1e5 ()) nl in
     (* ceil(log2 7) = 3 AND levels + output buffer: depth 4, so arrival
        stays well below a 7-long chain *)
     let inv = Library.variant lib Func.And2 Vth.Low Vth.Plain in
     let chain7 = 7.0 *. Smt_cell.Cell.delay inv ~load_ff:inv.Cell.input_cap in
     Smt_sta.Sta.arrival sta (Option.get (Netlist.find_net nl "o")) < chain7)

let test_reduce_tree_empty () =
  let b = Builder.create ~name:"rte" ~lib in
  Alcotest.(check bool) "empty raises" true
    (try
       ignore (Builder.reduce_tree b Builder.and_ []);
       false
     with Invalid_argument _ -> true)

let test_full_adder_truth () =
  let b = Builder.create ~name:"fa" ~lib in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let c = Builder.input b "c" in
  let s, carry = Builder.full_adder b ~a ~b:bb ~cin:c in
  let so = Builder.output b "s" in
  let co = Builder.output b "co" in
  Builder.gate_into b Func.Buf [ s ] so;
  Builder.gate_into b Func.Buf [ carry ] co;
  let nl = Builder.netlist b in
  let sim = Smt_sim.Simulator.create nl in
  for mask = 0 to 7 do
    let bit i = mask land (1 lsl i) <> 0 in
    Smt_sim.Simulator.set_inputs sim
      [
        ("a", Smt_sim.Logic.of_bool (bit 0)); ("b", Smt_sim.Logic.of_bool (bit 1));
        ("c", Smt_sim.Logic.of_bool (bit 2));
      ];
    Smt_sim.Simulator.propagate sim;
    let total = (if bit 0 then 1 else 0) + (if bit 1 then 1 else 0) + if bit 2 then 1 else 0 in
    let outs = Smt_sim.Simulator.output_values sim in
    Alcotest.(check bool) "sum bit" true
      (List.assoc "s" outs = Smt_sim.Logic.of_bool (total land 1 = 1));
    Alcotest.(check bool) "carry bit" true
      (List.assoc "co" outs = Smt_sim.Logic.of_bool (total >= 2))
  done

(* --- stats --- *)

let test_stats () =
  let nl = Smt_circuits.Generators.c17 lib in
  let s = Nl_stats.compute nl in
  Alcotest.(check int) "6 gates" 6 s.Nl_stats.combinational;
  Alcotest.(check int) "no ffs" 0 s.Nl_stats.sequential;
  Alcotest.(check int) "all low vth" 6 s.Nl_stats.count_low_vth;
  Alcotest.(check bool) "area positive" true (s.Nl_stats.area_total > 0.0);
  Alcotest.(check (float 1e-9)) "no mt" 0.0 (Nl_stats.mt_area_fraction s)

(* --- validation --- *)

let test_validate_clean () =
  let nl = Smt_circuits.Generators.c17 lib in
  Alcotest.(check (list string)) "no problems" [] (Check.validate nl)

let test_validate_unconnected_pin () =
  let nl = fresh "bad" in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  ignore (Netlist.add_inst nl ~name:"g" (lv Func.Nand2) [ ("A", a); ("Z", z) ]);
  Alcotest.(check bool) "catches missing B" true
    (List.exists (fun m -> String.length m > 0) (Check.validate nl))

let test_validate_undriven () =
  let nl = fresh "bad" in
  let w = Netlist.add_net nl "w" in
  let z = Netlist.add_output nl "z" in
  ignore (Netlist.add_inst nl ~name:"g" (lv Func.Inv) [ ("A", w); ("Z", z) ]);
  Alcotest.(check bool) "catches undriven" true
    (List.exists
       (fun m ->
         let contains hay needle =
           let nh = String.length hay and nn = String.length needle in
           let rec loop i = i + nn <= nh && (String.sub hay i nn = needle || loop (i + 1)) in
           loop 0
         in
         contains m "no driver")
       (Check.validate nl))

let test_holder_required_rule () =
  (* MT driver fanning out to only MT cells: no holder needed; to a plain
     cell: needed; to a primary output: needed. *)
  let nl = fresh "rule" in
  let a = Netlist.add_input nl "a" in
  let mid = Netlist.add_net nl "mid" in
  let z = Netlist.add_output nl "z" in
  ignore (Netlist.add_inst nl ~name:"m1" (mt_cell Func.Inv) [ ("A", a); ("Z", mid) ]);
  ignore (Netlist.add_inst nl ~name:"m2" (mt_cell Func.Inv) [ ("A", mid); ("Z", z) ]);
  Alcotest.(check bool) "all-MT fanout: unnecessary" false (Smt_check.Walk.holder_required nl mid);
  Alcotest.(check bool) "PO fanout: required" true (Smt_check.Walk.holder_required nl z);
  (* add a plain sink on mid *)
  let z2 = Netlist.add_output nl "z2" in
  ignore (Netlist.add_inst nl ~name:"p1" (lv Func.Inv) [ ("A", mid); ("Z", z2) ]);
  Alcotest.(check bool) "plain fanout: required" true (Smt_check.Walk.holder_required nl mid)

let test_post_mt_validation () =
  let nl = fresh "post" in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  ignore (Netlist.add_inst nl ~name:"m1" (mt_cell Func.Inv) [ ("A", a); ("Z", z) ]);
  let problems = Check.validate ~phase:Check.Post_mt nl in
  Alcotest.(check bool) "floating VGND caught" true
    (List.exists
       (fun m ->
         let contains hay needle =
           let nh = String.length hay and nn = String.length needle in
           let rec loop i = i + nn <= nh && (String.sub hay i nn = needle || loop (i + 1)) in
           loop 0
         in
         contains m "VGND")
       problems)

(* --- writer / parser / clone --- *)

let test_writer_parser_roundtrip () =
  let nl = Smt_circuits.Generators.c17 lib in
  let text = Writer.to_string nl in
  let nl2 = Parser.of_string ~lib text in
  Alcotest.(check string) "design name" (Netlist.design_name nl) (Netlist.design_name nl2);
  let s1 = Nl_stats.compute nl and s2 = Nl_stats.compute nl2 in
  Alcotest.(check int) "insts" s1.Nl_stats.instances s2.Nl_stats.instances;
  Alcotest.(check int) "nets" s1.Nl_stats.nets s2.Nl_stats.nets;
  Alcotest.(check string) "second dump identical" text (Writer.to_string nl2)

let test_roundtrip_preserves_vgnd () =
  let nl = fresh "v" in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  let mte = Netlist.add_input nl "MTE" in
  let g = Netlist.add_inst nl ~name:"g" (mt_cell Func.Inv) [ ("A", a); ("Z", z) ] in
  let sw = Netlist.add_inst nl ~name:"sw0" (Library.switch lib ~width:2.5) [ ("MTE", mte) ] in
  Netlist.set_vgnd_switch nl g (Some sw);
  ignore (Netlist.add_inst nl ~name:"h" (Library.holder lib) [ ("MTE", mte); ("Z", z) ]);
  let nl2 = Clone.copy nl in
  let g2 = Option.get (Netlist.find_inst nl2 "g") in
  let sw2 = Option.get (Netlist.find_inst nl2 "sw0") in
  Alcotest.(check (option int)) "vgnd restored" (Some sw2) (Netlist.vgnd_switch nl2 g2);
  Alcotest.(check (float 1e-9)) "switch width restored" 2.5
    (Netlist.cell nl2 sw2).Cell.switch_width;
  let z2 = Option.get (Netlist.find_net nl2 "z") in
  Alcotest.(check bool) "holder restored" true (Netlist.holder_of nl2 z2 <> None)

let test_roundtrip_preserves_clock () =
  (* after CTS the clock tree's buffered nets are clock nets too *)
  let nl = Smt_circuits.Generators.counter ~name:"cnt" ~bits:12 lib in
  ignore (Smt_core.Flow.run Smt_core.Flow.Improved_smt nl);
  let nl2 = Clone.copy nl in
  (match Netlist.clock_net nl2 with
  | Some c -> Alcotest.(check bool) "clock marked" true (Netlist.is_clock_net nl2 c)
  | None -> Alcotest.fail "clock lost");
  let clock_names nl =
    List.filter_map
      (fun n -> if Netlist.is_clock_net nl n then Some (Netlist.net_name nl n) else None)
      (List.init (Netlist.net_count nl) Fun.id)
  in
  Alcotest.(check bool) "the tree has buffered nets" true (List.length (clock_names nl) > 1);
  Alcotest.(check (list string)) "every clock net kept" (clock_names nl) (clock_names nl2)

let test_clone_is_equivalent () =
  let nl = Smt_circuits.Generators.c17 lib in
  let nl2 = Clone.copy nl in
  Alcotest.(check bool) "functionally equivalent" true (Smt_sim.Equiv.equivalent nl nl2)

let test_parser_rejects_garbage () =
  Alcotest.(check bool) "garbage raises" true
    (try
       ignore (Parser.of_string ~lib "modul x;");
       false
     with Parser.Parse_error _ -> true);
  Alcotest.(check bool) "unknown cell raises" true
    (try
       ignore
         (Parser.of_string ~lib "module t (a);\n input a;\n FROB g (.A(a));\nendmodule\n");
       false
     with Parser.Parse_error _ -> true)

(* Every file in corpus/ is a netlist the parser must reject with a
   located [Parse_error], never an escaped exception.  Its first line,
   "// expect LINE: TEXT", names the line the error must point at and a
   fragment of the message. *)
let test_parser_corpus () =
  let files =
    Sys.readdir "corpus" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".v")
    |> List.sort compare
  in
  Alcotest.(check bool) "corpus present" true (files <> []);
  List.iter
    (fun f ->
      let path = Filename.concat "corpus" f in
      let text = In_channel.with_open_bin path In_channel.input_all in
      let line, fragment = Scanf.sscanf text "// expect %d: %[^\n]" (fun l m -> (l, m)) in
      match Parser.of_string ~file:path ~lib text with
      | _ -> Alcotest.fail (f ^ ": accepted")
      | exception Parser.Parse_error msg ->
        let located = String.starts_with ~prefix:(Printf.sprintf "%s:%d:" path line) msg in
        let n = String.length fragment in
        let rec mentions i =
          i + n <= String.length msg && (String.sub msg i n = fragment || mentions (i + 1))
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S is at line %d and says %S" f msg line fragment)
          true
          (located && mentions 0))
    files

let test_parser_synthesizes_switches () =
  let text =
    "module t (MTE);\n  input MTE;\n  SW_W7p3 s0 (.MTE(MTE));\nendmodule\n"
  in
  let nl = Parser.of_string ~lib text in
  let sw = Option.get (Netlist.find_inst nl "s0") in
  Alcotest.(check (float 1e-9)) "width parsed" 7.3 (Netlist.cell nl sw).Cell.switch_width

(* --- power domains & touched-net journal --- *)

let test_domain_table () =
  let nl = fresh "d" in
  let ea = Netlist.add_input nl "mte_a" in
  Netlist.add_domain nl ~name:"a" ~mte:(Some ea);
  Netlist.add_domain nl ~name:"ao" ~mte:None;
  Alcotest.(check (list (pair string (option int))))
    "declaration order preserved"
    [ ("a", Some ea); ("ao", None) ]
    (Netlist.domains nl);
  let x = Netlist.add_input nl "x" in
  let z = Netlist.add_output nl "z" in
  let g = Netlist.add_inst nl ~name:"g" (lv Func.Inv) [ ("A", x); ("Z", z) ] in
  Alcotest.(check (option string)) "unassigned" None (Netlist.inst_domain nl g);
  Netlist.set_inst_domain nl g (Some "a");
  Alcotest.(check (option string)) "assigned" (Some "a") (Netlist.inst_domain nl g);
  Alcotest.(check bool) "not isolation by default" false (Netlist.is_isolation nl g);
  Netlist.set_isolation nl g true;
  Alcotest.(check bool) "isolation marked" true (Netlist.is_isolation nl g)

let test_touched_journal () =
  let nl = fresh "j" in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  let v0 = Netlist.version nl in
  Alcotest.(check (list int)) "creation touches, ascending" [ a; z ] (Netlist.touched_since nl 0);
  Alcotest.(check (list int)) "nothing after the current version" [] (Netlist.touched_since nl v0);
  let g = Netlist.add_inst nl ~name:"g" (lv Func.Inv) [ ("A", a); ("Z", z) ] in
  Alcotest.(check (list int)) "attach journals both pins" [ a; z ] (Netlist.touched_since nl v0);
  Alcotest.(check (list int)) "a read clears nothing" [ a; z ] (Netlist.touched_since nl v0);
  (* two cursors at different versions each see only their own later edits *)
  let v1 = Netlist.version nl in
  let b = Netlist.add_input nl "b" in
  let v2 = Netlist.version nl in
  Alcotest.(check bool) "versions grow" true (v0 < v1 && v1 < v2);
  Netlist.replace_cell nl g (mt_cell Func.Inv);
  Alcotest.(check (list int)) "older cursor sees both edits" [ a; z; b ] (Netlist.touched_since nl v1);
  Alcotest.(check (list int)) "replace_cell journals the conns" [ a; z ] (Netlist.touched_since nl v2);
  let v3 = Netlist.version nl in
  Netlist.remove_inst nl g;
  Alcotest.(check (list int)) "remove_inst journals the conns" [ a; z ] (Netlist.touched_since nl v3);
  Alcotest.(check (list int)) "the older cursors are unaffected" [ a; z; b ] (Netlist.touched_since nl v1)

let test_roundtrip_preserves_domains () =
  let nl = fresh "dm" in
  let ea = Netlist.add_input nl "mte_a" in
  let x = Netlist.add_input nl "x" in
  let z = Netlist.add_output nl "z" in
  Netlist.add_domain nl ~name:"a" ~mte:(Some ea);
  Netlist.add_domain nl ~name:"ao" ~mte:None;
  let g = Netlist.add_inst nl ~name:"g" (lv Func.Inv) [ ("A", x); ("Z", z) ] in
  Netlist.set_inst_domain nl g (Some "a");
  let h = Netlist.add_inst nl ~name:"h" (Library.holder lib) [ ("MTE", ea); ("Z", z) ] in
  Netlist.set_isolation nl h true;
  let text = Writer.to_string nl in
  let nl2 = Parser.of_string ~lib text in
  Alcotest.(check (list (pair string bool)))
    "domain table restored (enable presence)"
    [ ("a", true); ("ao", false) ]
    (List.map (fun (n, m) -> (n, m <> None)) (Netlist.domains nl2));
  let g2 = Option.get (Netlist.find_inst nl2 "g") in
  let h2 = Option.get (Netlist.find_inst nl2 "h") in
  Alcotest.(check (option string)) "membership restored" (Some "a")
    (Netlist.inst_domain nl2 g2);
  Alcotest.(check bool) "isolation restored" true (Netlist.is_isolation nl2 h2);
  Alcotest.(check string) "second dump identical" text (Writer.to_string nl2)

let test_parser_rejects_bad_domain_refs () =
  Alcotest.(check bool) "@domain with unknown net raises" true
    (try
       ignore
         (Parser.of_string ~lib
            "module t (a);\n  input a;\n  // @domain d nosuch\nendmodule\n");
       false
     with Parser.Parse_error _ -> true);
  Alcotest.(check bool) "@member with unknown domain raises" true
    (try
       ignore
         (Parser.of_string ~lib
            "module t (a, z);\n  input a;\n  output z;\n  INV_LVT g (.A(a), .Z(z));\n  // @member g nosuch\nendmodule\n");
       false
     with Parser.Parse_error _ -> true)

let test_multi_domain_roundtrip () =
  (* the full multi-domain SoC survives a writer/parser trip with its
     domain table, memberships, and isolation marks intact *)
  let nl = Smt_circuits.Suite.multi_domain ~domains:3 ~name:"soc" lib in
  let nl2 = Clone.copy nl in
  Alcotest.(check (list (pair string bool)))
    "domain table survives"
    (List.map (fun (n, m) -> (n, m <> None)) (Netlist.domains nl))
    (List.map (fun (n, m) -> (n, m <> None)) (Netlist.domains nl2));
  Netlist.iter_insts nl (fun iid ->
      let name = Netlist.inst_name nl iid in
      let iid2 = Option.get (Netlist.find_inst nl2 name) in
      Alcotest.(check (option string))
        (name ^ " membership survives")
        (Netlist.inst_domain nl iid)
        (Netlist.inst_domain nl2 iid2);
      Alcotest.(check bool)
        (name ^ " isolation mark survives")
        (Netlist.is_isolation nl iid)
        (Netlist.is_isolation nl2 iid2))

let () =
  Alcotest.run "smt_netlist"
    [
      ( "construction",
        [
          Alcotest.test_case "nets and ports" `Quick test_add_net_and_ports;
          Alcotest.test_case "duplicate net" `Quick test_duplicate_net_rejected;
          Alcotest.test_case "clock marking" `Quick test_clock_marking;
          Alcotest.test_case "instance connectivity" `Quick test_add_inst_connectivity;
          Alcotest.test_case "multi-driver rejected" `Quick test_multiple_driver_rejected;
          Alcotest.test_case "driving PI rejected" `Quick test_driving_pi_rejected;
          Alcotest.test_case "unknown pin rejected" `Quick test_unknown_pin_rejected;
          Alcotest.test_case "connect/disconnect" `Quick test_connect_disconnect;
          Alcotest.test_case "move_sink" `Quick test_move_sink;
          Alcotest.test_case "replace_cell" `Quick test_replace_cell;
          Alcotest.test_case "remove_inst" `Quick test_remove_inst;
          Alcotest.test_case "fresh names" `Quick test_fresh_names;
        ] );
      ( "mt-plumbing",
        [
          Alcotest.test_case "vgnd attach/detach" `Quick test_vgnd_attach;
          Alcotest.test_case "vgnd requires port" `Quick test_vgnd_requires_port;
          Alcotest.test_case "vgnd requires switch" `Quick test_vgnd_requires_switch;
          Alcotest.test_case "holder attachment" `Quick test_holder_attachment;
          Alcotest.test_case "embedded MTE pin" `Quick test_embedded_mte_pin;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "topological order" `Quick test_topo_order;
          Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
          Alcotest.test_case "flip-flop breaks cycle" `Quick test_ff_breaks_cycle;
          Alcotest.test_case "fanout/fanin" `Quick test_fanout_fanin;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "reduce_tree" `Quick test_reduce_tree;
          Alcotest.test_case "reduce_tree empty" `Quick test_reduce_tree_empty;
          Alcotest.test_case "full adder truth table" `Quick test_full_adder_truth;
        ] );
      ( "validation",
        [
          Alcotest.test_case "clean circuit" `Quick test_validate_clean;
          Alcotest.test_case "unconnected pin" `Quick test_validate_unconnected_pin;
          Alcotest.test_case "undriven net" `Quick test_validate_undriven;
          Alcotest.test_case "holder rule (paper)" `Quick test_holder_required_rule;
          Alcotest.test_case "post-MT phase" `Quick test_post_mt_validation;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "writer/parser roundtrip" `Quick test_writer_parser_roundtrip;
          Alcotest.test_case "vgnd & holder preserved" `Quick test_roundtrip_preserves_vgnd;
          Alcotest.test_case "clock preserved" `Quick test_roundtrip_preserves_clock;
          Alcotest.test_case "clone equivalent" `Quick test_clone_is_equivalent;
          Alcotest.test_case "parser rejects garbage" `Quick test_parser_rejects_garbage;
          Alcotest.test_case "parser corpus errors are located" `Quick test_parser_corpus;
          Alcotest.test_case "parser synthesizes switches" `Quick test_parser_synthesizes_switches;
        ] );
      ( "domains",
        [
          Alcotest.test_case "domain table" `Quick test_domain_table;
          Alcotest.test_case "touched-net journal" `Quick test_touched_journal;
          Alcotest.test_case "domains survive roundtrip" `Quick
            test_roundtrip_preserves_domains;
          Alcotest.test_case "bad domain refs rejected" `Quick
            test_parser_rejects_bad_domain_refs;
          Alcotest.test_case "multi-domain SoC roundtrip" `Quick
            test_multi_domain_roundtrip;
        ] );
    ]
