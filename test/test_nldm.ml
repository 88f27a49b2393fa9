(* Tests for the NLDM table model and the slew-aware STA path. *)

module Netlist = Smt_netlist.Netlist
module Builder = Smt_netlist.Builder
module Sta = Smt_sta.Sta
module Nldm = Smt_cell.Nldm
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Library = Smt_cell.Library
module Generators = Smt_circuits.Generators

let lib = Library.default ()

let nand2 = Library.variant lib Func.Nand2 Vth.Low Vth.Plain

(* --- table mechanics --- *)

let linear_table () =
  Nldm.make ~slews:[| 0.0; 10.0; 20.0 |] ~loads:[| 0.0; 5.0; 50.0 |]
    ~f:(fun ~slew ~load -> (2.0 *. slew) +. (3.0 *. load))

let test_lookup_grid_points () =
  let t = linear_table () in
  List.iter
    (fun (s, l) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "at (%g,%g)" s l)
        ((2.0 *. s) +. (3.0 *. l))
        (Nldm.lookup t ~slew:s ~load:l))
    [ (0.0, 0.0); (10.0, 5.0); (20.0, 50.0); (0.0, 50.0); (20.0, 0.0) ]

let test_lookup_bilinear_exact_on_linear () =
  (* bilinear interpolation reproduces a linear function everywhere *)
  let t = linear_table () in
  List.iter
    (fun (s, l) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "between (%g,%g)" s l)
        ((2.0 *. s) +. (3.0 *. l))
        (Nldm.lookup t ~slew:s ~load:l))
    [ (5.0, 2.5); (15.0, 27.5); (1.0, 49.0); (19.0, 1.0) ]

let test_lookup_clamps () =
  let t = linear_table () in
  Alcotest.(check (float 1e-9)) "below both axes" 0.0 (Nldm.lookup t ~slew:(-5.0) ~load:(-1.0));
  Alcotest.(check (float 1e-9)) "above both axes"
    ((2.0 *. 20.0) +. (3.0 *. 50.0))
    (Nldm.lookup t ~slew:100.0 ~load:500.0)

let test_make_validates () =
  Alcotest.(check bool) "empty axis rejected" true
    (try
       ignore (Nldm.make ~slews:[||] ~loads:[| 1.0 |] ~f:(fun ~slew:_ ~load:_ -> 0.0));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unsorted axis rejected" true
    (try
       ignore
         (Nldm.make ~slews:[| 1.0; 1.0 |] ~loads:[| 1.0 |] ~f:(fun ~slew:_ ~load:_ -> 0.0));
       false
     with Invalid_argument _ -> true)

(* --- characterization --- *)

let test_characterize_monotone () =
  let arcs = Nldm.characterize nand2 in
  let d s l = Nldm.lookup arcs.Nldm.delay ~slew:s ~load:l in
  Alcotest.(check bool) "delay grows with load" true (d 20.0 40.0 > d 20.0 2.0);
  Alcotest.(check bool) "delay grows with input slew" true (d 150.0 10.0 > d 10.0 10.0);
  let s s l = Nldm.lookup arcs.Nldm.out_slew ~slew:s ~load:l in
  Alcotest.(check bool) "output slew grows with load" true (s 20.0 40.0 > s 20.0 2.0)

let test_characterize_anchored_to_linear () =
  (* at the fastest input edge the table should sit near the linear model *)
  let arcs = Nldm.characterize nand2 in
  let table = Nldm.lookup arcs.Nldm.delay ~slew:5.0 ~load:10.0 in
  let linear = Cell.delay nand2 ~load_ff:10.0 in
  Alcotest.(check bool) "within 15% of linear at fast edge" true
    (Float.abs (table -. linear) /. linear < 0.15)

let test_store_caches () =
  let store = Nldm.store () in
  let a1 = Nldm.arcs_of store nand2 in
  let a2 = Nldm.arcs_of store nand2 in
  Alcotest.(check bool) "same physical table" true (a1 == a2)

(* --- slew-aware STA --- *)

let chain n =
  let b = Builder.create ~name:"chain" ~lib in
  let a = Builder.input b "a" in
  let last = ref a in
  for _ = 1 to n do
    last := Builder.not_ b !last
  done;
  let o = Builder.output b "o" in
  Builder.gate_into b Func.Buf [ !last ] o;
  Builder.netlist b

let test_slew_aware_slower () =
  let nl = chain 8 in
  let plain = Sta.analyze (Sta.config ~clock_period:1e5 ()) nl in
  let aware = Sta.analyze (Sta.config ~slew_aware:true ~clock_period:1e5 ()) nl in
  let o = Option.get (Netlist.find_net nl "o") in
  Alcotest.(check bool) "slew-aware arrival larger" true
    (Sta.arrival aware o > Sta.arrival plain o)

let test_slew_propagates () =
  let nl = chain 6 in
  let aware = Sta.analyze (Sta.config ~slew_aware:true ~clock_period:1e5 ()) nl in
  Netlist.iter_nets nl (fun nid ->
      Alcotest.(check bool) "slew positive everywhere" true (Sta.slew aware nid > 0.0))

let test_heavy_load_degrades_slew () =
  (* an inverter driving 12 sinks emits a slower edge than one driving 1 *)
  let b = Builder.create ~name:"fan" ~lib in
  let a = Builder.input b "a" in
  let light = Builder.not_ b a in
  let heavy = Builder.not_ b a in
  let o1 = Builder.output b "o1" in
  Builder.gate_into b Func.Buf [ light ] o1;
  for i = 0 to 11 do
    let o = Builder.output b (Printf.sprintf "h%d" i) in
    Builder.gate_into b Func.Buf [ heavy ] o
  done;
  let nl = Builder.netlist b in
  let aware = Sta.analyze (Sta.config ~slew_aware:true ~clock_period:1e5 ()) nl in
  Alcotest.(check bool) "fanout slows the edge" true
    (Sta.slew aware heavy > Sta.slew aware light)

let test_slew_aware_consistent_backward () =
  (* required times must be consistent with the slew-aware delays: on a
     single path, slack is uniform along the path *)
  let nl = chain 5 in
  let sta = Sta.analyze (Sta.config ~slew_aware:true ~clock_period:500.0 ()) nl in
  let o = Option.get (Netlist.find_net nl "o") in
  let end_slack = Sta.net_slack sta o in
  Netlist.iter_nets nl (fun nid ->
      if (not (Netlist.is_clock_net nl nid)) && Sta.net_slack sta nid < infinity then
        Alcotest.(check (float 1e-6)) "uniform slack on a chain" end_slack
          (Sta.net_slack sta nid))

let test_slew_aware_incremental () =
  let nl = Generators.multiplier ~name:"m5" ~bits:5 lib in
  let cfg = Sta.config ~slew_aware:true ~clock_period:5000.0 () in
  let sta = Sta.analyze cfg nl in
  let victims =
    Netlist.live_insts nl
    |> List.filter (fun iid ->
           let c = Netlist.cell nl iid in
           c.Cell.vth = Vth.Low && c.Cell.style = Vth.Plain
           && not (Func.is_sequential c.Cell.kind))
    |> List.filteri (fun i _ -> i mod 7 = 0)
  in
  List.iter
    (fun iid ->
      Netlist.replace_cell nl iid (Library.restyle lib (Netlist.cell nl iid) Vth.High Vth.Plain))
    victims;
  Sta.update sta;
  let full = Sta.analyze cfg nl in
  Netlist.iter_nets nl (fun nid ->
      Alcotest.(check (float 1e-6)) "arrival agrees" (Sta.arrival full nid)
        (Sta.arrival sta nid);
      Alcotest.(check (float 1e-6)) "slew agrees" (Sta.slew full nid) (Sta.slew sta nid))

let test_flow_runs_slew_aware () =
  (* the full improved flow also works under the NLDM model *)
  let nl = Generators.multiplier ~name:"m6" ~bits:6 lib in
  let probe = 1e6 in
  let sta = Sta.analyze (Sta.config ~slew_aware:true ~clock_period:probe ()) nl in
  let period = (probe -. Sta.wns sta) *. 1.3 in
  let cfg = Sta.config ~slew_aware:true ~clock_period:period () in
  let r = Smt_core.Vth_assign.assign cfg nl in
  Alcotest.(check bool) "assignment works under NLDM" true (r.Smt_core.Vth_assign.swapped > 0);
  Alcotest.(check bool) "timing met" true (Sta.meets_timing r.Smt_core.Vth_assign.sta)

let test_full_flow_slew_aware () =
  let options = { Smt_core.Flow.default_options with Smt_core.Flow.slew_aware = true } in
  let nl = Generators.multiplier ~name:"m6f" ~bits:6 lib in
  let r = Smt_core.Flow.run ~options Smt_core.Flow.Improved_smt nl in
  Alcotest.(check bool) "timing met under NLDM" true r.Smt_core.Flow.timing_met;
  Alcotest.(check bool) "hold met under NLDM" true r.Smt_core.Flow.hold_met;
  Alcotest.(check int) "bounce clean" 0 r.Smt_core.Flow.bounce_violations;
  (* NLDM delays are larger, so the self-calibrated clock is slower *)
  let nl2 = Generators.multiplier ~name:"m6g" ~bits:6 lib in
  let linear = Smt_core.Flow.run Smt_core.Flow.Improved_smt nl2 in
  Alcotest.(check bool) "NLDM clock slower than linear" true
    (r.Smt_core.Flow.clock_period > linear.Smt_core.Flow.clock_period)

let () =
  Alcotest.run "smt_nldm"
    [
      ( "tables",
        [
          Alcotest.test_case "grid points exact" `Quick test_lookup_grid_points;
          Alcotest.test_case "bilinear on linear fn" `Quick test_lookup_bilinear_exact_on_linear;
          Alcotest.test_case "clamping" `Quick test_lookup_clamps;
          Alcotest.test_case "axis validation" `Quick test_make_validates;
        ] );
      ( "characterization",
        [
          Alcotest.test_case "monotone" `Quick test_characterize_monotone;
          Alcotest.test_case "anchored to linear" `Quick test_characterize_anchored_to_linear;
          Alcotest.test_case "store caches" `Quick test_store_caches;
        ] );
      ( "slew-aware-sta",
        [
          Alcotest.test_case "slower than linear" `Quick test_slew_aware_slower;
          Alcotest.test_case "slew propagates" `Quick test_slew_propagates;
          Alcotest.test_case "fanout degrades edge" `Quick test_heavy_load_degrades_slew;
          Alcotest.test_case "backward consistent" `Quick test_slew_aware_consistent_backward;
          Alcotest.test_case "incremental agrees" `Quick test_slew_aware_incremental;
          Alcotest.test_case "vth assignment works" `Quick test_flow_runs_slew_aware;
          Alcotest.test_case "full flow under NLDM" `Quick test_full_flow_slew_aware;
        ] );
    ]
