(* Tests for netlist composition and placement save/restore. *)

module Netlist = Smt_netlist.Netlist
module Check = Smt_check.Drc
module Placement = Smt_place.Placement
module Sta = Smt_sta.Sta
module Mt_replace = Smt_core.Mt_replace
module Vth_assign = Smt_core.Vth_assign
module Switch_insert = Smt_core.Switch_insert
module Library = Smt_cell.Library
module Generators = Smt_circuits.Generators

let lib = Library.default ()

(* --- composition --- *)

let test_compose_structure () =
  let a = Generators.c17 lib in
  let b = Generators.counter ~name:"cnt" ~bits:4 lib in
  let top = Smt_netlist.Compose.merge ~name:"top" [ ("u0", a); ("u1", b) ] in
  Alcotest.(check (list string)) "valid" [] (Check.validate top);
  let sa = Smt_netlist.Nl_stats.compute a in
  let sb = Smt_netlist.Nl_stats.compute b in
  let st = Smt_netlist.Nl_stats.compute top in
  Alcotest.(check int) "instances add up"
    (sa.Smt_netlist.Nl_stats.instances + sb.Smt_netlist.Nl_stats.instances)
    st.Smt_netlist.Nl_stats.instances;
  (* one shared clock *)
  let clock_inputs =
    Netlist.inputs top |> List.filter (fun (_, nid) -> Netlist.is_clock_net top nid)
  in
  Alcotest.(check int) "single clock input" 1 (List.length clock_inputs)

let test_compose_preserves_function () =
  let a = Generators.c17 lib in
  let top = Smt_netlist.Compose.merge ~name:"top" [ ("u0", Generators.c17 lib) ] in
  (* drive the composed block and the standalone block identically *)
  let sim_top = Smt_sim.Simulator.create top in
  let sim_a = Smt_sim.Simulator.create a in
  for mask = 0 to 31 do
    let bit i = Smt_sim.Logic.of_bool (mask land (1 lsl i) <> 0) in
    let names = [ "G1"; "G2"; "G3"; "G4"; "G5" ] in
    Smt_sim.Simulator.set_inputs sim_a (List.mapi (fun i n -> (n, bit i)) names);
    Smt_sim.Simulator.set_inputs sim_top
      (List.mapi (fun i n -> ("u0_" ^ n, bit i)) names);
    Smt_sim.Simulator.propagate sim_a;
    Smt_sim.Simulator.propagate sim_top;
    List.iter
      (fun out ->
        let va = List.assoc out (Smt_sim.Simulator.output_values sim_a) in
        let vt = List.assoc ("u0_" ^ out) (Smt_sim.Simulator.output_values sim_top) in
        Alcotest.(check bool) (out ^ " matches") true (Smt_sim.Logic.equal va vt))
      [ "G22"; "G23" ]
  done

let test_compose_preserves_vgnd () =
  let nl = Generators.multiplier ~name:"m" ~bits:5 lib in
  let probe = 1e6 in
  let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
  let period = (probe -. Sta.wns sta) *. 1.05 in
  ignore (Vth_assign.assign (Sta.config ~clock_period:period ()) nl);
  ignore (Mt_replace.replace Mt_replace.Improved nl);
  let place = Placement.place nl in
  ignore (Switch_insert.insert place);
  let top = Smt_netlist.Compose.merge ~name:"top" [ ("b", nl) ] in
  Alcotest.(check (list string)) "post-MT valid after merge" []
    (Check.validate ~phase:Check.Post_mt top);
  Alcotest.(check int) "switches survive" (List.length (Netlist.switches nl))
    (List.length (Netlist.switches top))

let test_compose_bad_args () =
  let a = Generators.c17 lib in
  Alcotest.(check bool) "empty list" true
    (try
       ignore (Smt_netlist.Compose.merge ~name:"t" []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate prefix" true
    (try
       ignore
         (Smt_netlist.Compose.merge ~name:"t" [ ("u", a); ("u", Generators.c17 lib) ]);
       false
     with Invalid_argument _ -> true)

let test_soc_runs_the_flow () =
  let nl = Smt_circuits.Suite.all |> List.assoc "soc" |> fun g -> g lib in
  let r = Smt_core.Flow.run Smt_core.Flow.Improved_smt nl in
  Alcotest.(check bool) "flow completes on the composed SoC" true (r.Smt_core.Flow.area > 0.0);
  Alcotest.(check bool) "timing met" true r.Smt_core.Flow.timing_met

(* --- placement io --- *)

let test_placement_roundtrip () =
  let nl = Generators.multiplier ~name:"mp" ~bits:6 lib in
  let place = Placement.place nl in
  let text = Placement.to_string place in
  let back = Placement.of_string nl text in
  List.iter
    (fun iid ->
      let p1 = Placement.inst_point place iid and p2 = Placement.inst_point back iid in
      Alcotest.(check bool)
        (Netlist.inst_name nl iid ^ " position survives")
        true
        (Float.abs (p1.Smt_util.Geom.x -. p2.Smt_util.Geom.x) < 1e-3
        && Float.abs (p1.Smt_util.Geom.y -. p2.Smt_util.Geom.y) < 1e-3))
    (Netlist.live_insts nl);
  Alcotest.(check bool) "hpwl agrees" true
    (Float.abs (Placement.total_hpwl place -. Placement.total_hpwl back)
     /. Placement.total_hpwl place
    < 0.01)

let test_placement_io_errors () =
  let nl = Generators.c17 lib in
  Alcotest.(check bool) "missing DIE" true
    (try
       ignore (Placement.of_string nl "INST nobody 1 2\n");
       false
     with Failure _ -> true);
  Alcotest.(check bool) "unknown instance" true
    (try
       ignore
         (Placement.of_string nl "DIE 0 0 10 10 ROWS 2\nINST nobody 1 2\n");
       false
     with Failure _ -> true)

let () =
  Alcotest.run "smt_domains_io"
    [
      ( "compose",
        [
          Alcotest.test_case "structure" `Quick test_compose_structure;
          Alcotest.test_case "function preserved" `Quick test_compose_preserves_function;
          Alcotest.test_case "vgnd preserved" `Quick test_compose_preserves_vgnd;
          Alcotest.test_case "bad arguments" `Quick test_compose_bad_args;
          Alcotest.test_case "soc through the flow" `Quick test_soc_runs_the_flow;
        ] );
      ( "placement-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_placement_roundtrip;
          Alcotest.test_case "errors" `Quick test_placement_io_errors;
        ] );
    ]
