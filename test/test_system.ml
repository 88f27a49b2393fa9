(* System-level tests: global router, sign-off reports, and the standby
   entry/exit protocol. *)

module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Parasitics = Smt_route.Parasitics
module Global_router = Smt_route.Global_router
module Sta = Smt_sta.Sta
module Flow = Smt_core.Flow
module Explain = Smt_core.Explain
module Standby = Smt_core.Standby
module Switch_insert = Smt_core.Switch_insert
module Mt_replace = Smt_core.Mt_replace
module Vth_assign = Smt_core.Vth_assign
module Library = Smt_cell.Library
module Generators = Smt_circuits.Generators

let lib = Library.default ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub hay i nn = needle || loop (i + 1)) in
  loop 0

let placed () =
  let nl = Generators.multiplier ~name:"m6" ~bits:6 lib in
  let place = Placement.place nl in
  (nl, place)

(* --- global router --- *)

let test_router_routes_everything () =
  let nl, place = placed () in
  let r = Global_router.route place in
  Alcotest.(check bool) "nets routed" true (Global_router.routed_nets r > 0);
  let missing = ref 0 in
  Netlist.iter_nets nl (fun nid ->
      let pts = Placement.pin_points place nid in
      if List.length pts >= 2 then begin
        let box = Smt_util.Geom.bbox_of_points pts in
        if Smt_util.Geom.hpwl box > 0.0 && Global_router.net_length r nid <= 0.0 then
          incr missing
      end);
  Alcotest.(check int) "no spread net unrouted" 0 !missing

let test_router_length_lower_bound () =
  (* routed length >= HPWL/2 for every net (gcell quantization aside) *)
  let nl, place = placed () in
  let r = Global_router.route ~gcell:5.0 place in
  Netlist.iter_nets nl (fun nid ->
      let hpwl = Placement.net_hpwl place nid in
      if hpwl > 10.0 then
        Alcotest.(check bool) "not shorter than half HPWL" true
          (Global_router.net_length r nid >= (hpwl /. 2.0) -. 10.0))

let test_router_deterministic () =
  let _, place = placed () in
  let r1 = Global_router.route place and r2 = Global_router.route place in
  Alcotest.(check (float 1e-9)) "same total length" (Global_router.total_length r1)
    (Global_router.total_length r2);
  Alcotest.(check int) "same overflow" (Global_router.overflow r1) (Global_router.overflow r2)

let test_router_capacity_relieves_overflow () =
  let _, place = placed () in
  let tight = Global_router.route ~capacity:1 place in
  let roomy = Global_router.route ~capacity:1000 place in
  Alcotest.(check int) "huge capacity, no overflow" 0 (Global_router.overflow roomy);
  Alcotest.(check bool) "tight capacity, at least as much overflow" true
    (Global_router.overflow tight >= Global_router.overflow roomy);
  Alcotest.(check bool) "congestion ratio sane" true (Global_router.max_congestion roomy <= 1.0)

let test_router_detour_factor () =
  let _, place = placed () in
  let r = Global_router.route place in
  let d = Global_router.detour_factor r place in
  Alcotest.(check bool) "detour >= 1" true (d >= 1.0);
  Alcotest.(check bool) "detour sane (< 3)" true (d < 3.0)

(* --- reports --- *)

let flow_report = lazy (
  let nl = Generators.multiplier ~name:"m6r" ~bits:6 lib in
  let r = Flow.run Flow.Improved_smt nl in
  (nl, r))

let test_timing_report () =
  let nl, _ = Lazy.force flow_report in
  let sta = Sta.analyze (Sta.config ~clock_period:5000.0 ()) nl in
  let text = Explain.(text (paths ~k:2 sta)) in
  Alcotest.(check bool) "mentions slack" true (contains text "slack");
  Alcotest.(check bool) "has endpoint section" true (contains text "path to");
  Alcotest.(check bool) "has path table" true
    (contains text "Cell ps" && contains text "Wire ps");
  Alcotest.(check bool) "met at 5ns" true (contains text "(MET)")

let test_timing_report_violated () =
  let nl, _ = Lazy.force flow_report in
  let sta = Sta.analyze (Sta.config ~clock_period:10.0 ()) nl in
  Alcotest.(check bool) "flags violation" true
    (contains Explain.(text (paths ~k:3 sta)) "(VIOLATED)")

let test_power_report () =
  let nl, _ = Lazy.force flow_report in
  let text = Explain.(text (power nl)) in
  Alcotest.(check bool) "total present" true (contains text "Standby leakage");
  Alcotest.(check bool) "switches listed" true (contains text "sleep switches");
  Alcotest.(check bool) "MT residual listed" true (contains text "MT-cell residual");
  Alcotest.(check bool) "share column" true (contains text "%")

let test_area_report () =
  let nl, _ = Lazy.force flow_report in
  let text = Explain.(text (area nl)) in
  Alcotest.(check bool) "MT category" true (contains text "MT-cells");
  Alcotest.(check bool) "kind table" true (contains text "DFF");
  Alcotest.(check bool) "fraction shown" true (contains text "MT fraction")

let test_summary () =
  let nl, _ = Lazy.force flow_report in
  let sta = Sta.analyze (Sta.config ~clock_period:5000.0 ()) nl in
  Alcotest.(check bool) "summary says MET" true (contains Explain.(text (summary sta)) "MET")

(* --- JSON export --- *)

let test_json_export () =
  let module D = Smt_obs.Obs_json.Decode in
  let _, r = Lazy.force flow_report in
  let fields = D.dict (fun v -> v) in
  let decode what d text =
    match D.decode_string ~source:what d text with Ok v -> v | Error e -> Alcotest.fail e
  in
  (* Every entry carries its own run's fields and nothing process-wide
     (the metrics registry sums every run since start-up). *)
  let report_keys =
    [ "technique"; "circuit"; "clock_period_ps"; "area_um2"; "standby_nw"; "leakage";
      "wns_ps"; "hold_slack_ps"; "worst_bounce_v"; "bounce_violations"; "timing_met";
      "hold_met"; "mt_cells"; "switches"; "clusters"; "holders"; "holders_avoided";
      "mte_buffers"; "cts_buffers"; "hold_buffers"; "high_vth_swaps"; "cells_downsized";
      "ffs_retained"; "reopt_resized"; "reopt_violations_repaired"; "mt_area_fraction";
      "total_switch_width"; "stages" ]
  in
  let keys = List.map fst in
  Alcotest.(check (list string)) "report keys" report_keys
    (keys (decode "report" fields (Smt_core.Report_json.of_report r)));
  let rows = [ Smt_core.Compare.table1_row (fun () -> Generators.multiplier ~name:"mj" ~bits:5 lib) ] in
  let entries =
    decode "rows"
      (D.list (D.field "entries" (D.list (fun e -> (fields e, D.field "report" fields e)))))
      (Smt_core.Report_json.of_rows rows)
  in
  Alcotest.(check int) "one row" 1 (List.length entries);
  Alcotest.(check int) "three entries" 3 (List.length (List.hd entries));
  List.iter
    (fun (entry, report) ->
      Alcotest.(check (list string)) "entry keys"
        [ "technique"; "area_pct"; "leakage_pct"; "report" ] (keys entry);
      Alcotest.(check (list string)) "entry report keys" report_keys (keys report))
    (List.hd entries)

(* --- seed robustness --- *)

let test_orderings_hold_across_seeds () =
  List.iter
    (fun seed ->
      let options = { Flow.default_options with Flow.seed } in
      let reports =
        Flow.run_all ~options (fun () -> Generators.multiplier ~name:"ms" ~bits:6 lib)
      in
      match reports with
      | [ d; c; i ] ->
        Alcotest.(check bool) (Printf.sprintf "seed %d: area con>imp>dual" seed) true
          (c.Flow.area > i.Flow.area && i.Flow.area > d.Flow.area);
        Alcotest.(check bool) (Printf.sprintf "seed %d: leak dual>con>imp" seed) true
          (d.Flow.standby_nw > c.Flow.standby_nw && c.Flow.standby_nw > i.Flow.standby_nw);
        List.iter
          (fun (r : Flow.report) ->
            Alcotest.(check bool) (Printf.sprintf "seed %d timing met" seed) true
              r.Flow.timing_met)
          reports
      | _ -> Alcotest.fail "three reports")
    [ 2; 5; 11 ]

(* --- standby protocol --- *)

let test_standby_improved_flow_clean () =
  let nl = Generators.multiplier ~name:"m6s" ~bits:6 lib in
  ignore (Flow.run Flow.Improved_smt nl);
  let o = Standby.simulate nl in
  Alcotest.(check bool) "state preserved" true o.Standby.state_preserved;
  Alcotest.(check bool) "outputs defined while asleep" true
    o.Standby.outputs_defined_in_standby;
  Alcotest.(check int) "no X into awake logic" 0 o.Standby.x_leaks_into_awake_logic;
  Alcotest.(check bool) "first wake cycle correct" true o.Standby.first_wake_cycle_correct;
  Alcotest.(check bool) "all wake cycles correct" true o.Standby.all_wake_cycles_correct

let test_standby_conventional_flow_clean () =
  let nl = Generators.multiplier ~name:"m6t" ~bits:6 lib in
  ignore (Flow.run Flow.Conventional_smt nl);
  let o = Standby.simulate nl in
  Alcotest.(check bool) "embedded holders keep outputs" true
    o.Standby.outputs_defined_in_standby;
  Alcotest.(check bool) "wake correct" true o.Standby.all_wake_cycles_correct

let test_standby_dual_vth_trivially_clean () =
  let nl = Generators.multiplier ~name:"m6u" ~bits:6 lib in
  ignore (Flow.run Flow.Dual_vth nl);
  let o = Standby.simulate nl in
  (* nothing floats: there is no MT logic at all *)
  Alcotest.(check int) "no leaks" 0 o.Standby.x_leaks_into_awake_logic;
  Alcotest.(check bool) "state preserved" true o.Standby.state_preserved

let test_standby_without_holders_leaks () =
  (* build the improved structure but suppress holder minimisation AND
     delete the holders: floating nets now reach awake logic *)
  let nl = Generators.multiplier ~name:"m6v" ~bits:6 lib in
  let probe = 1e6 in
  let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
  let period = (probe -. Sta.wns sta) *. 1.05 in
  ignore (Vth_assign.assign (Sta.config ~clock_period:period ()) nl);
  ignore (Mt_replace.replace Mt_replace.Improved nl);
  let place = Placement.place nl in
  ignore (Switch_insert.insert place);
  (* strip every holder *)
  Netlist.iter_insts nl (fun iid ->
      if (Netlist.cell nl iid).Smt_cell.Cell.kind = Smt_cell.Func.Holder then
        Netlist.remove_inst nl iid);
  let o = Standby.simulate nl in
  Alcotest.(check bool) "X escapes without holders" true
    (o.Standby.x_leaks_into_awake_logic > 0 || not o.Standby.outputs_defined_in_standby)

let test_mte_tree_delay () =
  let nl = Generators.multiplier ~name:"m8mte" ~bits:8 lib in
  ignore (Flow.run Flow.Improved_smt nl);
  let cfg = Sta.config ~clock_period:5000.0 () in
  let d = Standby.mte_tree_delay cfg nl in
  Alcotest.(check bool) "non-negative" true (d >= 0.0);
  (* the dual flow has no MTE net at all *)
  let nl2 = Generators.multiplier ~name:"m8mtd" ~bits:8 lib in
  ignore (Flow.run Flow.Dual_vth nl2);
  Alcotest.(check (float 1e-9)) "no MTE, no delay" 0.0 (Standby.mte_tree_delay cfg nl2)

let test_congested_length () =
  let _, place = placed () in
  let r = Global_router.route place in
  let pts =
    [ Smt_util.Geom.point 5.0 5.0; Smt_util.Geom.point 40.0 12.0; Smt_util.Geom.point 20.0 30.0 ]
  in
  let weighted = Global_router.congested_length r pts in
  let plain = Smt_util.Geom.spanning_length pts in
  Alcotest.(check bool) "at least the plain MST" true (weighted >= plain -. 1e-6);
  (* a saturated grid prices everything longer *)
  let tight = Global_router.route ~capacity:1 place in
  Alcotest.(check bool) "congestion inflates" true
    (Global_router.congested_length tight pts >= weighted -. 1e-6);
  Alcotest.(check (float 1e-9)) "degenerate set" 0.0
    (Global_router.congested_length r [ Smt_util.Geom.point 1.0 1.0 ])

(* --- multi-corner signoff --- *)

let test_signoff_typical_matches_base () =
  let nl, _ = Lazy.force flow_report in
  let tech = Library.tech lib in
  let sta = Sta.analyze (Sta.config ~clock_period:5000.0 ()) nl in
  let s =
    Smt_core.Signoff.run ~corners:[ Smt_cell.Corner.typical tech ] ~clock_period:5000.0 sta
  in
  (match s.Smt_core.Signoff.entries with
  | [ e ] ->
    Alcotest.(check (float 1e-6)) "wns matches plain STA" (Sta.wns sta)
      e.Smt_core.Signoff.wns_ps;
    Alcotest.(check bool) "met" true e.Smt_core.Signoff.timing_met
  | _ -> Alcotest.fail "one entry expected")

let test_signoff_corner_ordering () =
  let nl, _ = Lazy.force flow_report in
  let sta = Sta.analyze (Sta.config ~clock_period:5000.0 ()) nl in
  let s = Smt_core.Signoff.run ~clock_period:5000.0 sta in
  Alcotest.(check int) "four corners" 4 (List.length s.Smt_core.Signoff.entries);
  (* worst timing at a slow corner, worst leakage at fast/hot *)
  Alcotest.(check bool) "worst timing is slow" true
    (s.Smt_core.Signoff.worst_timing.Smt_core.Signoff.corner.Smt_cell.Corner.process
    = Smt_cell.Corner.Slow);
  let wl = s.Smt_core.Signoff.worst_leakage.Smt_core.Signoff.corner in
  Alcotest.(check bool) "worst leakage is fast and hot" true
    (wl.Smt_cell.Corner.process = Smt_cell.Corner.Fast
    && wl.Smt_cell.Corner.temperature_c > 100.0);
  Alcotest.(check bool) "renders" true
    (String.length (Smt_core.Signoff.render s) > 50)

let test_signoff_detects_slow_corner_violation () =
  let nl, _ = Lazy.force flow_report in
  (* pick a period the typical corner barely meets: the slow corner fails *)
  let probe = Sta.analyze (Sta.config ~clock_period:1e6 ()) nl in
  let crit = 1e6 -. Sta.wns probe in
  let clock_period = crit *. 1.02 in
  let s = Smt_core.Signoff.run ~clock_period (Sta.analyze (Sta.config ~clock_period ()) nl) in
  Alcotest.(check bool) "not clean across corners" true (not s.Smt_core.Signoff.all_met);
  Alcotest.(check bool) "typical itself met" true
    (List.exists
       (fun e ->
         e.Smt_core.Signoff.corner.Smt_cell.Corner.process = Smt_cell.Corner.Typical
         && e.Smt_core.Signoff.timing_met)
       s.Smt_core.Signoff.entries)

let () =
  Alcotest.run "smt_system"
    [
      ( "global-router",
        [
          Alcotest.test_case "routes everything" `Quick test_router_routes_everything;
          Alcotest.test_case "length lower bound" `Quick test_router_length_lower_bound;
          Alcotest.test_case "deterministic" `Quick test_router_deterministic;
          Alcotest.test_case "capacity vs overflow" `Quick test_router_capacity_relieves_overflow;
          Alcotest.test_case "detour factor" `Quick test_router_detour_factor;
          Alcotest.test_case "congested length" `Quick test_congested_length;
        ] );
      ( "reports",
        [
          Alcotest.test_case "timing" `Quick test_timing_report;
          Alcotest.test_case "timing violated" `Quick test_timing_report_violated;
          Alcotest.test_case "power" `Quick test_power_report;
          Alcotest.test_case "area" `Quick test_area_report;
          Alcotest.test_case "summary" `Quick test_summary;
        ] );
      ( "standby-protocol",
        [
          Alcotest.test_case "improved flow clean" `Quick test_standby_improved_flow_clean;
          Alcotest.test_case "conventional flow clean" `Quick test_standby_conventional_flow_clean;
          Alcotest.test_case "dual-vth trivially clean" `Quick test_standby_dual_vth_trivially_clean;
          Alcotest.test_case "holders are load-bearing" `Quick test_standby_without_holders_leaks;
          Alcotest.test_case "mte tree delay" `Quick test_mte_tree_delay;
        ] );
      ( "exports",
        [
          Alcotest.test_case "json" `Quick test_json_export;
        ] );
      ( "robustness",
        [ Alcotest.test_case "orderings across seeds" `Slow test_orderings_hold_across_seeds ] );
      ( "signoff",
        [
          Alcotest.test_case "typical matches base" `Quick test_signoff_typical_matches_base;
          Alcotest.test_case "corner ordering" `Quick test_signoff_corner_ordering;
          Alcotest.test_case "slow-corner violation" `Quick test_signoff_detects_slow_corner_violation;
        ] );
    ]
