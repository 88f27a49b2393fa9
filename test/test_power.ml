module Netlist = Smt_netlist.Netlist
module Leakage = Smt_power.Leakage
module Bounce = Smt_power.Bounce
module Em = Smt_power.Em
module Activity = Smt_sim.Activity
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Cell = Smt_cell.Cell
module Tech = Smt_cell.Tech
module Library = Smt_cell.Library
module Generators = Smt_circuits.Generators

let lib = Library.default ()
let tech = Library.tech lib

let hv k = Library.variant lib k Vth.High Vth.Plain
let mtv k = Library.variant lib k Vth.Low Vth.Mt_vgnd

(* --- leakage accounting --- *)

let test_breakdown_sums () =
  let nl = Generators.multiplier ~name:"m" ~bits:5 lib in
  let b = Leakage.standby nl in
  let parts =
    b.Leakage.low_vth_logic +. b.Leakage.high_vth_logic +. b.Leakage.sequential
    +. b.Leakage.mt_residual +. b.Leakage.switches +. b.Leakage.embedded_mt
    +. b.Leakage.holders +. b.Leakage.infrastructure
  in
  Alcotest.(check (float 1e-6)) "parts sum to total" b.Leakage.total parts

let test_all_low_vth_is_leaky () =
  let nl = Generators.c17 lib in
  let b = Leakage.standby nl in
  Alcotest.(check bool) "dominated by low-vth" true
    (b.Leakage.low_vth_logic > 0.99 *. b.Leakage.total)

let test_hv_swap_reduces () =
  let nl = Generators.c17 lib in
  let before = (Leakage.standby nl).Leakage.total in
  Netlist.iter_insts nl (fun iid ->
      let c = Netlist.cell nl iid in
      Netlist.replace_cell nl iid (Library.variant lib c.Cell.kind Vth.High Vth.Plain));
  let after = (Leakage.standby nl).Leakage.total in
  Alcotest.(check bool) "much lower" true (after < before /. 20.0)

let test_mt_conversion_reduces () =
  let nl = Generators.c17 lib in
  let before = (Leakage.standby nl).Leakage.total in
  Netlist.iter_insts nl (fun iid ->
      let c = Netlist.cell nl iid in
      Netlist.replace_cell nl iid (Library.variant lib c.Cell.kind Vth.Low Vth.Mt_vgnd));
  let b = Leakage.standby nl in
  Alcotest.(check bool) "residual only" true (b.Leakage.total < before /. 20.0);
  Alcotest.(check (float 1e-9)) "classified as MT" b.Leakage.total b.Leakage.mt_residual

let test_active_vs_standby () =
  let nl = Generators.c17 lib in
  Netlist.iter_insts nl (fun iid ->
      let c = Netlist.cell nl iid in
      Netlist.replace_cell nl iid (Library.variant lib c.Cell.kind Vth.Low Vth.Mt_vgnd));
  (* MT saves in standby, not in active mode (logic stays powered) *)
  Alcotest.(check bool) "active >> standby for MT circuit" true
    (Leakage.active nl > 10.0 *. (Leakage.standby nl).Leakage.total)

(* --- currents and bounce --- *)

let mt_fixture n =
  let nl = Netlist.create ~name:"fx" ~lib () in
  let mte = Netlist.add_input nl "MTE" in
  let a = Netlist.add_input nl "a" in
  let members =
    List.init n (fun i ->
        let z = Netlist.add_output nl (Printf.sprintf "z%d" i) in
        Netlist.add_inst nl ~name:(Printf.sprintf "m%d" i) (mtv Func.Nand2)
          [ ("A", a); ("B", a); ("Z", z) ])
  in
  (nl, mte, members)

let test_simultaneous_current () =
  let nl, _, members = mt_fixture 8 in
  let currents = Bounce.currents nl in
  let i1 = Bounce.simultaneous currents [ List.hd members ] in
  let i8 = Bounce.simultaneous currents members in
  Alcotest.(check bool) "grows with members" true (i8 > i1);
  (* single cell: exactly its peak *)
  Alcotest.(check (float 1e-9)) "single = peak" (mtv Func.Nand2).Cell.peak_current i1;
  (* diversity: far less than the sum of peaks *)
  Alcotest.(check bool) "less than worst-case sum" true
    (i8 < 8.0 *. (mtv Func.Nand2).Cell.peak_current);
  Alcotest.(check (float 1e-9)) "empty cluster" 0.0
    (Bounce.simultaneous currents [])

let test_sustained_below_simultaneous () =
  let nl, _, members = mt_fixture 10 in
  Alcotest.(check bool) "sustained <= simultaneous" true
    (let currents = Bounce.currents nl in
     Bounce.sustained currents members <= Bounce.simultaneous currents members)

let test_activity_reduces_current () =
  let nl = Generators.c17 lib in
  Netlist.iter_insts nl (fun iid ->
      let c = Netlist.cell nl iid in
      Netlist.replace_cell nl iid (Library.variant lib c.Cell.kind Vth.Low Vth.Mt_vgnd));
  let members = Netlist.live_insts nl in
  let act = Activity.estimate ~cycles:100 nl in
  let with_act = Bounce.simultaneous (Bounce.currents ~activity:act nl) members in
  let without = Bounce.simultaneous (Bounce.currents nl) members in
  (* default toggle assumption is 0.5, measured activity is typically lower *)
  Alcotest.(check bool) "measured activity tightens the estimate" true (with_act <= without)

let test_bounce_formula () =
  let b = Bounce.bounce_v tech ~switch_width:2.0 ~wire_length:0.0 ~current_ua:10.0 in
  let r = Tech.switch_resistance tech ~width:2.0 in
  Alcotest.(check (float 1e-9)) "I*R" (10.0 *. 1e-6 *. r) b;
  Alcotest.(check (float 1e-9)) "zero current" 0.0
    (Bounce.bounce_v tech ~switch_width:2.0 ~wire_length:100.0 ~current_ua:0.0);
  let with_wire = Bounce.bounce_v tech ~switch_width:2.0 ~wire_length:300.0 ~current_ua:10.0 in
  Alcotest.(check bool) "wire adds bounce" true (with_wire > b)

let test_wider_switch_less_bounce () =
  let narrow = Bounce.bounce_v tech ~switch_width:1.0 ~wire_length:50.0 ~current_ua:20.0 in
  let wide = Bounce.bounce_v tech ~switch_width:8.0 ~wire_length:50.0 ~current_ua:20.0 in
  Alcotest.(check bool) "wider is quieter" true (wide < narrow)

let test_analyze_clusters () =
  let nl, mte, members = mt_fixture 6 in
  let sw = Netlist.add_inst nl ~name:"sw0" (Library.switch lib ~width:4.0) [ ("MTE", mte) ] in
  List.iter (fun m -> Netlist.set_vgnd_switch nl m (Some sw)) members;
  let reports = Bounce.analyze nl ~wire_length_of:(fun _ -> 40.0) in
  (match reports with
  | [ r ] ->
    Alcotest.(check int) "member count" 6 r.Bounce.members;
    Alcotest.(check bool) "bounce positive" true (r.Bounce.bounce > 0.0);
    Alcotest.(check (float 1e-9)) "wire length passed through" 40.0 r.Bounce.wire_length
  | _ -> Alcotest.fail "expected one cluster");
  Alcotest.(check bool) "worst >= 0" true (Bounce.worst reports >= 0.0)

let test_bounce_of_fn () =
  let nl, mte, members = mt_fixture 4 in
  (* undersized switch: clearly bouncing *)
  let sw = Netlist.add_inst nl ~name:"sw0" (Library.switch lib ~width:0.2) [ ("MTE", mte) ] in
  List.iter (fun m -> Netlist.set_vgnd_switch nl m (Some sw)) members;
  let reports = Bounce.analyze nl ~wire_length_of:(fun _ -> 0.0) in
  let f = Bounce.bounce_of_fn reports nl in
  List.iter
    (fun m -> Alcotest.(check bool) "member sees cluster bounce" true (f m > 0.0))
    members;
  Alcotest.(check int) "violations counted" 1 (Bounce.violations reports);
  (* a plain cell sees none *)
  let z = Netlist.add_output nl "zz" in
  let plain =
    Netlist.add_inst nl ~name:"p" (hv Func.Inv)
      [ ("A", Option.get (Netlist.find_net nl "a")); ("Z", z) ]
  in
  Alcotest.(check (float 1e-9)) "plain sees zero" 0.0 (f plain)

let test_embedded_bounce_at_limit () =
  let nl = Netlist.create ~name:"e" ~lib () in
  let a = Netlist.add_input nl "a" in
  let z = Netlist.add_output nl "z" in
  let mte = Netlist.add_input nl "MTE" in
  let emb = Library.variant lib Func.Nand2 Vth.Low Vth.Mt_embedded in
  let g = Netlist.add_inst nl ~name:"g" emb [ ("A", a); ("B", a); ("Z", z); ("MTE", mte) ] in
  let f = Bounce.bounce_of_fn [] nl in
  let b = f g in
  Alcotest.(check bool) "embedded bounce positive" true (b > 0.0);
  Alcotest.(check bool) "within the limit (guardbanded)" true
    (b <= tech.Tech.bounce_limit +. 1e-9)

(* --- attribution --- *)

let share_total shares =
  List.fold_left (fun acc (s : Leakage.class_share) -> acc +. s.Leakage.share_nw) 0.0 shares

let share_cells shares =
  List.fold_left (fun acc (s : Leakage.class_share) -> acc + s.Leakage.share_cells) 0 shares

let test_attribution_sums () =
  let nl = Generators.multiplier ~name:"attr" ~bits:5 lib in
  (* mix in some non-plain styles so the grouping has work to do *)
  Netlist.iter_insts nl (fun iid ->
      let c = Netlist.cell nl iid in
      if c.Cell.kind = Func.And2 then
        Netlist.replace_cell nl iid (mtv Func.And2)
      else if c.Cell.kind = Func.Or2 then Netlist.replace_cell nl iid (hv Func.Or2));
  let total = (Leakage.standby nl).Leakage.total in
  let insts = ref 0 in
  Netlist.iter_insts nl (fun _ -> incr insts);
  List.iter
    (fun (label, shares) ->
      Alcotest.(check (float 1e-6)) (label ^ " shares sum to standby total") total
        (share_total shares);
      Alcotest.(check int) (label ^ " shares cover every instance") !insts
        (share_cells shares);
      let nws = List.map (fun (s : Leakage.class_share) -> s.Leakage.share_nw) shares in
      Alcotest.(check (list (float 1e-9)))
        (label ^ " descending by nW")
        (List.sort (fun a b -> compare b a) nws)
        nws)
    [ ("by_vth", Leakage.by_vth nl); ("by_function", Leakage.by_function nl) ];
  (* the restyled cells appear under their own class label *)
  let labels = List.map (fun (s : Leakage.class_share) -> s.Leakage.share_label) (Leakage.by_vth nl) in
  Alcotest.(check bool) "mt style labelled" true (List.mem "low-vth mt-vgnd" labels)

let test_cluster_attribution () =
  let nl, mte, members = mt_fixture 6 in
  let sw = Netlist.add_inst nl ~name:"sw0" (Library.switch lib ~width:4.0) [ ("MTE", mte) ] in
  List.iter (fun m -> Netlist.set_vgnd_switch nl m (Some sw)) members;
  let reports = Bounce.analyze nl ~wire_length_of:(fun _ -> 40.0) in
  match Leakage.clusters ~cell_limit:10 ~bounce_limit:0.123 nl ~bounce:reports with
  | [ a ] ->
    Alcotest.(check string) "switch name" "sw0" a.Leakage.ca_switch_name;
    Alcotest.(check int) "members" 6 a.Leakage.ca_members;
    Alcotest.(check int) "cell limit passed through" 10 a.Leakage.ca_cell_limit;
    Alcotest.(check (float 1e-9)) "bounce limit passed through" 0.123 a.Leakage.ca_bounce_limit;
    Alcotest.(check (float 1e-9)) "vgnd length from the bounce report" 40.0 a.Leakage.ca_vgnd_um;
    let members_nw =
      List.fold_left (fun acc m -> acc +. (Netlist.cell nl m).Cell.leak_standby) 0.0 members
    in
    Alcotest.(check (float 1e-9)) "member leakage summed" members_nw a.Leakage.ca_members_nw;
    Alcotest.(check (float 1e-9)) "switch leakage is the footer's"
      (Netlist.cell nl sw).Cell.leak_standby a.Leakage.ca_switch_nw
  | attrs -> Alcotest.failf "expected one cluster attribution, got %d" (List.length attrs)

let test_cluster_attribution_default_limits () =
  let nl, mte, members = mt_fixture 4 in
  let sw = Netlist.add_inst nl ~name:"sw0" (Library.switch lib ~width:4.0) [ ("MTE", mte) ] in
  List.iter (fun m -> Netlist.set_vgnd_switch nl m (Some sw)) members;
  let reports = Bounce.analyze nl ~wire_length_of:(fun _ -> 0.0) in
  match Leakage.clusters nl ~bounce:reports with
  | [ a ] ->
    Alcotest.(check int) "defaults to the tech EM cap" tech.Tech.em_cell_limit
      a.Leakage.ca_cell_limit;
    Alcotest.(check (float 1e-9)) "defaults to the tech bounce limit" tech.Tech.bounce_limit
      a.Leakage.ca_bounce_limit
  | attrs -> Alcotest.failf "expected one cluster attribution, got %d" (List.length attrs)

(* --- EM --- *)

let test_em_checks () =
  Alcotest.(check bool) "ok" true
    (Em.cluster_ok tech ~cells:4 ~sustained_ua:10.0);
  (match Em.check tech ~cells:(tech.Tech.em_cell_limit + 1) ~sustained_ua:1.0 with
  | Em.Too_many_cells _ -> ()
  | v -> Alcotest.fail (Em.describe v));
  (match Em.check tech ~cells:2 ~sustained_ua:(tech.Tech.em_current_limit +. 1.0) with
  | Em.Current_exceeded _ -> ()
  | v -> Alcotest.fail (Em.describe v));
  Alcotest.(check string) "describe ok" "ok" (Em.describe Em.Ok)

let test_vgnd_wire_res () =
  Alcotest.(check (float 1e-9)) "zero length" 0.0 (Bounce.vgnd_wire_res tech ~length:0.0);
  Alcotest.(check bool) "monotone" true
    (Bounce.vgnd_wire_res tech ~length:100.0 > Bounce.vgnd_wire_res tech ~length:10.0)

let () =
  Alcotest.run "smt_power"
    [
      ( "leakage",
        [
          Alcotest.test_case "breakdown sums" `Quick test_breakdown_sums;
          Alcotest.test_case "all-low-vth leaks" `Quick test_all_low_vth_is_leaky;
          Alcotest.test_case "hv swap reduces" `Quick test_hv_swap_reduces;
          Alcotest.test_case "mt conversion reduces" `Quick test_mt_conversion_reduces;
          Alcotest.test_case "active vs standby" `Quick test_active_vs_standby;
        ] );
      ( "bounce",
        [
          Alcotest.test_case "simultaneous current" `Quick test_simultaneous_current;
          Alcotest.test_case "sustained <= simultaneous" `Quick test_sustained_below_simultaneous;
          Alcotest.test_case "activity tightens" `Quick test_activity_reduces_current;
          Alcotest.test_case "bounce formula" `Quick test_bounce_formula;
          Alcotest.test_case "width helps" `Quick test_wider_switch_less_bounce;
          Alcotest.test_case "cluster analysis" `Quick test_analyze_clusters;
          Alcotest.test_case "per-instance bounce fn" `Quick test_bounce_of_fn;
          Alcotest.test_case "embedded at limit" `Quick test_embedded_bounce_at_limit;
          Alcotest.test_case "vgnd wire res" `Quick test_vgnd_wire_res;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "class shares sum" `Quick test_attribution_sums;
          Alcotest.test_case "cluster attribution" `Quick test_cluster_attribution;
          Alcotest.test_case "cluster default limits" `Quick
            test_cluster_attribution_default_limits;
        ] );
      ("em", [ Alcotest.test_case "checks" `Quick test_em_checks ]);
    ]
