module Netlist = Smt_netlist.Netlist
module Builder = Smt_netlist.Builder
module Sta = Smt_sta.Sta
module Wire = Smt_sta.Wire
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Cell = Smt_cell.Cell
module Library = Smt_cell.Library
module Generators = Smt_circuits.Generators

let lib = Library.default ()

(* A single inverter from PI to PO. *)
let single_inv () =
  let b = Builder.create ~name:"inv1" ~lib in
  let a = Builder.input b "a" in
  let o = Builder.output b "o" in
  Builder.gate_into b Func.Inv [ a ] o;
  Builder.netlist b

let test_single_gate_arrival () =
  let nl = single_inv () in
  let cfg = Sta.config ~clock_period:1000.0 () in
  let sta = Sta.analyze cfg nl in
  let o = Option.get (Netlist.find_net nl "o") in
  let inv = Library.variant lib Func.Inv Vth.Low Vth.Plain in
  (* load = PO pin cap (4 fF), no wires *)
  let expected = Cell.delay inv ~load_ff:4.0 in
  Alcotest.(check (float 1e-9)) "arrival = gate delay" expected (Sta.arrival sta o);
  Alcotest.(check (float 1e-9)) "slack = T - d" (1000.0 -. expected) (Sta.net_slack sta o);
  Alcotest.(check (float 1e-9)) "wns" (1000.0 -. expected) (Sta.wns sta)

let test_chain_arrival_adds () =
  let b = Builder.create ~name:"chain" ~lib in
  let a = Builder.input b "a" in
  let n1 = Builder.not_ b a in
  let n2 = Builder.not_ b n1 in
  let o = Builder.output b "o" in
  Builder.gate_into b Func.Inv [ n2 ] o;
  let nl = Builder.netlist b in
  let cfg = Sta.config ~clock_period:1000.0 () in
  let sta = Sta.analyze cfg nl in
  let inv = Library.variant lib Func.Inv Vth.Low Vth.Plain in
  let d_mid = Cell.delay inv ~load_ff:inv.Cell.input_cap in
  let d_last = Cell.delay inv ~load_ff:4.0 in
  let o_net = Option.get (Netlist.find_net nl "o") in
  Alcotest.(check (float 1e-9)) "three stages add"
    ((2.0 *. d_mid) +. d_last)
    (Sta.arrival sta o_net)

let test_max_of_paths () =
  (* A NAND fed by a long chain and a direct PI: arrival takes the max. *)
  let b = Builder.create ~name:"max" ~lib in
  let a = Builder.input b "a" in
  let c = Builder.input b "c" in
  let n1 = Builder.not_ b a in
  let n2 = Builder.not_ b n1 in
  let o = Builder.output b "o" in
  Builder.gate_into b Func.Nand2 [ n2; c ] o;
  let nl = Builder.netlist b in
  let cfg = Sta.config ~clock_period:1000.0 () in
  let sta = Sta.analyze cfg nl in
  let o_net = Option.get (Netlist.find_net nl "o") in
  let path = Sta.critical_path sta in
  Alcotest.(check bool) "path nonempty" true (path <> []);
  let last = List.nth path (List.length path - 1) in
  Alcotest.(check int) "ends at output" o_net last.Sta.step_net;
  (* path should have 3 steps of logic (inv, inv, nand), not the short one *)
  Alcotest.(check int) "goes through the chain" 3
    (List.length (List.filter (fun s -> s.Sta.step_inst <> None) path))

let test_ff_to_ff_timing () =
  let b = Builder.create ~name:"ff2ff" ~lib in
  let clk = Builder.input ~clock:true b "clk" in
  let d = Builder.input b "d" in
  let q1 = Builder.dff b ~d ~clk in
  let n1 = Builder.not_ b q1 in
  let q2 = Builder.dff b ~d:n1 ~clk in
  let o = Builder.output b "o" in
  Builder.gate_into b Func.Buf [ q2 ] o;
  let nl = Builder.netlist b in
  let cfg = Sta.config ~clock_period:200.0 () in
  let sta = Sta.analyze cfg nl in
  let eps = Sta.endpoints sta in
  let ff_eps =
    List.filter (fun ep -> match ep.Sta.kind with Sta.Ff_data _ -> true | _ -> false) eps
  in
  Alcotest.(check int) "two FF endpoints" 2 (List.length ff_eps);
  let dff = Library.variant lib Func.Dff Vth.Low Vth.Plain in
  let inv = Library.variant lib Func.Inv Vth.Low Vth.Plain in
  (* q1 -> inv -> q2.D: arrival = clk2q(load=inv cap) + inv(load=dff cap) *)
  let expected =
    Cell.delay dff ~load_ff:inv.Cell.input_cap +. Cell.delay inv ~load_ff:dff.Cell.input_cap
  in
  let ep_q2 =
    List.find
      (fun ep -> Float.abs (ep.Sta.arrival -. expected) < 1e-6)
      ff_eps
  in
  Alcotest.(check (float 1e-9)) "required = T - setup" (200.0 -. dff.Cell.setup)
    ep_q2.Sta.required

let test_timing_violation_detected () =
  let nl = Generators.ripple_adder ~registered:true ~name:"ra" ~bits:8 lib in
  let tight = Sta.config ~clock_period:50.0 () in
  let sta = Sta.analyze tight nl in
  Alcotest.(check bool) "violated at 50ps" true (not (Sta.meets_timing sta));
  Alcotest.(check bool) "tns negative" true (Sta.tns sta < 0.0);
  let loose = Sta.config ~clock_period:100000.0 () in
  let sta2 = Sta.analyze loose nl in
  Alcotest.(check bool) "met at 100ns" true (Sta.meets_timing sta2);
  Alcotest.(check (float 1e-9)) "tns zero when met" 0.0 (Sta.tns sta2)

let test_wire_model_slows () =
  let nl = single_inv () in
  let no_wire = Sta.analyze (Sta.config ~clock_period:1000.0 ()) nl in
  let wired =
    Sta.analyze
      (Sta.config ~wire:(Wire.lumped ~cap_per_fanout:10.0 ~delay_per_fanout:5.0)
         ~clock_period:1000.0 ())
      nl
  in
  let o = Option.get (Netlist.find_net nl "o") in
  Alcotest.(check bool) "wires slow arrivals" true
    (Sta.arrival wired o > Sta.arrival no_wire o)

let test_bounce_slows_mt_only () =
  let nl = single_inv () in
  let g = Option.get (Netlist.find_inst nl "inv_1") in
  let base_cfg = Sta.config ~clock_period:1000.0 () in
  let bounce_cfg = { base_cfg with Sta.bounce_of = (fun _ -> 0.1) } in
  let o = Option.get (Netlist.find_net nl "o") in
  let before = Sta.arrival (Sta.analyze bounce_cfg nl) o in
  (* plain cell: bounce ignored *)
  Alcotest.(check (float 1e-9)) "plain unaffected"
    (Sta.arrival (Sta.analyze base_cfg nl) o)
    before;
  Netlist.replace_cell nl g (Library.variant lib Func.Inv Vth.Low Vth.Mt_vgnd);
  let mt_base = Sta.arrival (Sta.analyze base_cfg nl) o in
  let mt_bounced = Sta.arrival (Sta.analyze bounce_cfg nl) o in
  Alcotest.(check bool) "MT slowed by bounce" true (mt_bounced > mt_base)

let test_clock_latency_shifts () =
  let b = Builder.create ~name:"lat" ~lib in
  let clk = Builder.input ~clock:true b "clk" in
  let d = Builder.input b "d" in
  let q1 = Builder.dff b ~d ~clk in
  let n = Builder.not_ b q1 in
  let _q2 = Builder.dff b ~d:n ~clk in
  let o = Builder.output b "o" in
  Builder.gate_into b Func.Buf [ q1 ] o;
  let nl = Builder.netlist b in
  let cfg = Sta.config ~clock_period:500.0 () in
  let sta0 = Sta.analyze cfg nl in
  (* capture-only latency relaxes setup at the capturing FF *)
  let ffs =
    List.filter (fun i -> (Netlist.cell nl i).Cell.kind = Func.Dff) (Netlist.live_insts nl)
  in
  let capture_ff =
    List.find
      (fun i ->
        match Netlist.pin_net nl i "D" with
        | Some dnet -> Netlist.driver nl dnet <> None
        | None -> false)
      (List.filter
         (fun i ->
           match Netlist.pin_net nl i "D" with
           | Some dnet -> not (Netlist.is_pi nl dnet)
           | None -> false)
         ffs)
  in
  let cfg_lat =
    { cfg with Sta.clock_latency = (fun i -> if i = capture_ff then 30.0 else 0.0) }
  in
  let sta1 = Sta.analyze cfg_lat nl in
  let slack_of sta =
    List.fold_left
      (fun acc ep ->
        match ep.Sta.kind with Sta.Ff_data i when i = capture_ff -> ep.Sta.slack | _ -> acc)
      nan (Sta.endpoints sta)
  in
  Alcotest.(check (float 1e-6)) "late capture clock adds slack" (slack_of sta0 +. 30.0)
    (slack_of sta1)

let test_hold_violation_from_skew () =
  (* Launch FF with zero latency into capture FF with large latency: the
     short path violates hold. *)
  let b = Builder.create ~name:"hold" ~lib in
  let clk = Builder.input ~clock:true b "clk" in
  let d = Builder.input b "d" in
  let q1 = Builder.dff b ~d ~clk in
  let q2 = Builder.dff b ~d:q1 ~clk in
  let o = Builder.output b "o" in
  Builder.gate_into b Func.Buf [ q2 ] o;
  let nl = Builder.netlist b in
  let ffs =
    List.filter (fun i -> (Netlist.cell nl i).Cell.kind = Func.Dff) (Netlist.live_insts nl)
  in
  let capture =
    List.find
      (fun i ->
        match Netlist.pin_net nl i "D" with
        | Some dn -> not (Netlist.is_pi nl dn)
        | None -> false)
      ffs
  in
  let cfg =
    {
      (Sta.config ~clock_period:500.0 ()) with
      Sta.clock_latency = (fun i -> if i = capture then 100.0 else 0.0);
    }
  in
  let sta = Sta.analyze cfg nl in
  Alcotest.(check bool) "hold violated" true (not (Sta.meets_hold sta));
  Alcotest.(check bool) "setup still fine" true (Sta.meets_timing sta)

let test_worst_endpoints_sorted () =
  let nl = Generators.ripple_adder ~registered:true ~name:"ra" ~bits:6 lib in
  let sta = Sta.analyze (Sta.config ~clock_period:400.0 ()) nl in
  let worst = Sta.worst_endpoints sta 5 in
  Alcotest.(check int) "asked 5" 5 (List.length worst);
  let slacks = List.map (fun ep -> ep.Sta.slack) worst in
  Alcotest.(check (list (float 1e-9))) "ascending" (List.sort compare slacks) slacks;
  (match (worst, Sta.endpoints sta) with
  | w :: _, eps ->
    List.iter (fun ep -> Alcotest.(check bool) "global min" true (ep.Sta.slack >= w.Sta.slack)) eps
  | [], _ -> Alcotest.fail "no endpoints")

let test_worst_paths_structure () =
  let nl = Generators.ripple_adder ~registered:true ~name:"rp" ~bits:6 lib in
  let sta =
    Sta.analyze
      {
        (Sta.config ~clock_period:400.0 ()) with
        Sta.wire = Wire.lumped ~cap_per_fanout:1.5 ~delay_per_fanout:3.0;
      }
      nl
  in
  let k = 4 in
  let paths = Sta.worst_paths sta k in
  Alcotest.(check int) "asked k paths" k (List.length paths);
  (match paths with
  | first :: _ ->
    Alcotest.(check (float 1e-9)) "first path slack is the wns" (Sta.wns sta)
      first.Sta.path_endpoint.Sta.slack
  | [] -> Alcotest.fail "no paths");
  List.iter
    (fun (p : Sta.path) ->
      let ep = p.Sta.path_endpoint in
      Alcotest.(check bool) "path non-empty" true (p.Sta.path_arcs <> []);
      (* the structured arcs must reproduce the endpoint arrival exactly:
         sum of cell+wire delays plus the capture hop *)
      let total =
        List.fold_left
          (fun acc (a : Sta.path_arc) -> acc +. a.Sta.arc_cell_delay +. a.Sta.arc_wire_delay)
          0.0 p.Sta.path_arcs
        +. p.Sta.path_capture_wire
      in
      Alcotest.(check (float 1e-6)) "arc delays sum to the arrival" ep.Sta.arrival total;
      (* per-arc consistency with the raw analysis *)
      List.iter
        (fun (a : Sta.path_arc) ->
          Alcotest.(check (float 1e-9)) "arc arrival matches analysis"
            (Sta.arrival sta a.Sta.arc_net) a.Sta.arc_arrival;
          (match a.Sta.arc_inst with
          | Some iid ->
            Alcotest.(check (float 1e-9)) "arc cell delay is the used delay"
              (Sta.used_delay sta iid) a.Sta.arc_cell_delay
          | None -> Alcotest.(check (float 1e-9)) "launch has no cell delay" 0.0 a.Sta.arc_cell_delay);
          Alcotest.(check bool) "delays finite" true
            (Float.is_finite a.Sta.arc_cell_delay && Float.is_finite a.Sta.arc_wire_delay))
        p.Sta.path_arcs;
      (* arrivals ascend along the path *)
      ignore
        (List.fold_left
           (fun prev (a : Sta.path_arc) ->
             Alcotest.(check bool) "arrivals non-decreasing" true (a.Sta.arc_arrival >= prev -. 1e-9);
             a.Sta.arc_arrival)
           neg_infinity p.Sta.path_arcs))
    paths;
  (* ascending by slack, consistent with worst_endpoints *)
  let slacks = List.map (fun p -> p.Sta.path_endpoint.Sta.slack) paths in
  Alcotest.(check (list (float 1e-9))) "paths ascend by slack" (List.sort compare slacks) slacks

let test_endpoint_name_forms () =
  let nl = Generators.ripple_adder ~registered:true ~name:"rn" ~bits:4 lib in
  let sta = Sta.analyze (Sta.config ~clock_period:400.0 ()) nl in
  List.iter
    (fun ep ->
      let name = Sta.endpoint_name sta ep in
      Alcotest.(check bool) "non-empty" true (name <> "");
      match ep.Sta.kind with
      | Sta.Ff_data _ ->
        Alcotest.(check bool) "ff endpoint named inst/D" true
          (String.length name > 2 && String.sub name (String.length name - 2) 2 = "/D")
      | Sta.Primary_output port -> Alcotest.(check string) "po endpoint is the port" port name)
    (Sta.endpoints sta)

let test_inst_slack () =
  let nl = single_inv () in
  let g = Option.get (Netlist.find_inst nl "inv_1") in
  let sta = Sta.analyze (Sta.config ~clock_period:100.0 ()) nl in
  Alcotest.(check bool) "inst slack finite" true (Sta.inst_slack sta g < infinity);
  Alcotest.(check (float 1e-9)) "matches net slack"
    (Sta.net_slack sta (Option.get (Netlist.find_net nl "o")))
    (Sta.inst_slack sta g)

(* A flip-flop's slack is the min of its D-endpoint slacks and its Q-net
   slack: checked against a fold over [endpoints] for every flip-flop of
   circuit_a's improved flow product, on the flow's final analysis and on
   an incremental update after restyling one flip-flop. *)
let ff_slack_by_fold sta nl iid =
  let d =
    List.fold_left
      (fun acc (ep : Sta.endpoint) ->
        match ep.Sta.kind with
        | Sta.Ff_data i when i = iid -> Float.min acc ep.Sta.slack
        | Sta.Ff_data _ | Sta.Primary_output _ -> acc)
      infinity (Sta.endpoints sta)
  in
  let q = match Netlist.pin_net nl iid "Q" with Some q -> Sta.net_slack sta q | None -> infinity in
  Float.min d q

let test_ff_inst_slack_matches_endpoints () =
  let nl = Smt_circuits.Suite.circuit_a lib in
  let _, art = Smt_core.Flow.run_with_artifacts Smt_core.Flow.Improved_smt nl in
  let ffs =
    List.filter (fun iid -> (Netlist.cell nl iid).Cell.kind = Func.Dff) (Netlist.live_insts nl)
  in
  Alcotest.(check bool) "has flip-flops" true (ffs <> []);
  let check sta =
    List.iter
      (fun iid ->
        let expected = ff_slack_by_fold sta nl iid and got = Sta.inst_slack sta iid in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %h = %h" (Netlist.inst_name nl iid) got expected)
          true
          (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float expected)))
      ffs
  in
  let sta = art.Smt_core.Flow.art_sta in
  check sta;
  let ff = List.hd ffs in
  let c = Netlist.cell nl ff in
  Netlist.replace_cell nl ff
    (Library.restyle lib c (if c.Cell.vth = Vth.High then Vth.Low else Vth.High) Vth.Plain);
  Sta.update sta;
  check sta

let test_input_arrival_shifts () =
  let nl = single_inv () in
  let base = Sta.analyze (Sta.config ~clock_period:1000.0 ()) nl in
  let shifted =
    Sta.analyze { (Sta.config ~clock_period:1000.0 ()) with Sta.input_arrival = 40.0 } nl
  in
  let o = Option.get (Netlist.find_net nl "o") in
  Alcotest.(check (float 1e-9)) "arrival shifts by input_arrival"
    (Sta.arrival base o +. 40.0) (Sta.arrival shifted o);
  Alcotest.(check (float 1e-9)) "slack shrinks accordingly" (Sta.wns base -. 40.0)
    (Sta.wns shifted)

let test_output_margin_tightens () =
  let nl = single_inv () in
  let base = Sta.analyze (Sta.config ~clock_period:1000.0 ()) nl in
  let tight =
    Sta.analyze { (Sta.config ~clock_period:1000.0 ()) with Sta.output_margin = 100.0 } nl
  in
  Alcotest.(check (float 1e-9)) "wns tightened by the margin" (Sta.wns base -. 100.0)
    (Sta.wns tight)

let test_hold_margin () =
  let b = Builder.create ~name:"hm" ~lib in
  let clk = Builder.input ~clock:true b "clk" in
  let d = Builder.input b "d" in
  let q1 = Builder.dff b ~d ~clk in
  let q2 = Builder.dff b ~d:q1 ~clk in
  let o = Builder.output b "o" in
  Builder.gate_into b Func.Buf [ q2 ] o;
  let nl = Builder.netlist b in
  let base = Sta.analyze (Sta.config ~clock_period:500.0 ()) nl in
  let margin =
    Sta.analyze { (Sta.config ~clock_period:500.0 ()) with Sta.hold_margin = 10.0 } nl
  in
  Alcotest.(check (float 1e-9)) "hold slack shrinks by the margin"
    (Sta.worst_hold_slack base -. 10.0)
    (Sta.worst_hold_slack margin)

let test_used_delay () =
  let nl = single_inv () in
  let cfg = Sta.config ~clock_period:1000.0 () in
  let sta = Sta.analyze cfg nl in
  let g = Option.get (Netlist.find_inst nl "inv_1") in
  Alcotest.(check (float 1e-9)) "matches the analytic delay" (Sta.cell_delay cfg nl g)
    (Sta.used_delay sta g);
  Alcotest.(check (float 1e-9)) "unknown instance" 0.0 (Sta.used_delay sta 999999)

let test_load_of_net () =
  let b = Builder.create ~name:"load" ~lib in
  let a = Builder.input b "a" in
  let x = Builder.not_ b a in
  let y1 = Builder.not_ b x in
  let _y2 = Builder.not_ b y1 in
  let o = Builder.output b "o" in
  Builder.gate_into b Func.Buf [ x ] o;
  let nl = Builder.netlist b in
  let cfg = Sta.config ~clock_period:100.0 () in
  let inv = Library.variant lib Func.Inv Vth.Low Vth.Plain in
  let buf = Library.variant lib Func.Buf Vth.Low Vth.Plain in
  (* net x drives: one INV and one BUF *)
  let x_net = Option.get (Netlist.find_net nl (Netlist.net_name nl x)) in
  Alcotest.(check (float 1e-9)) "pin caps sum"
    (inv.Cell.input_cap +. buf.Cell.input_cap)
    (Sta.load_of_net cfg nl x_net)

let () =
  Alcotest.run "smt_sta"
    [
      ( "arrival",
        [
          Alcotest.test_case "single gate" `Quick test_single_gate_arrival;
          Alcotest.test_case "chain adds" `Quick test_chain_arrival_adds;
          Alcotest.test_case "max over paths" `Quick test_max_of_paths;
          Alcotest.test_case "load of net" `Quick test_load_of_net;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "ff-to-ff setup" `Quick test_ff_to_ff_timing;
          Alcotest.test_case "violation detection" `Quick test_timing_violation_detected;
          Alcotest.test_case "clock latency" `Quick test_clock_latency_shifts;
          Alcotest.test_case "hold from skew" `Quick test_hold_violation_from_skew;
        ] );
      ( "models",
        [
          Alcotest.test_case "wire model" `Quick test_wire_model_slows;
          Alcotest.test_case "bounce derating" `Quick test_bounce_slows_mt_only;
        ] );
      ( "queries",
        [
          Alcotest.test_case "worst endpoints sorted" `Quick test_worst_endpoints_sorted;
          Alcotest.test_case "worst paths structure" `Quick test_worst_paths_structure;
          Alcotest.test_case "endpoint names" `Quick test_endpoint_name_forms;
          Alcotest.test_case "inst slack" `Quick test_inst_slack;
          Alcotest.test_case "flip-flop inst slack = endpoint fold" `Quick
            test_ff_inst_slack_matches_endpoints;
          Alcotest.test_case "used delay" `Quick test_used_delay;
        ] );
      ( "config-knobs",
        [
          Alcotest.test_case "input arrival" `Quick test_input_arrival_shifts;
          Alcotest.test_case "output margin" `Quick test_output_margin_tightens;
          Alcotest.test_case "hold margin" `Quick test_hold_margin;
        ] );
    ]
