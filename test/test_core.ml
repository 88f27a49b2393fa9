module Netlist = Smt_netlist.Netlist
module Check = Smt_check.Drc
module Clone = Smt_netlist.Clone
module Placement = Smt_place.Placement
module Sta = Smt_sta.Sta
module Leakage = Smt_power.Leakage
module Bounce = Smt_power.Bounce
module Activity = Smt_sim.Activity
module Vth_assign = Smt_core.Vth_assign
module Mt_replace = Smt_core.Mt_replace
module Switch_insert = Smt_core.Switch_insert
module Cluster = Smt_core.Cluster
module Mte = Smt_core.Mte
module Reopt = Smt_core.Reopt
module Eco = Smt_core.Eco
module Func = Smt_cell.Func
module Vth = Smt_cell.Vth
module Cell = Smt_cell.Cell
module Tech = Smt_cell.Tech
module Library = Smt_cell.Library
module Generators = Smt_circuits.Generators
module Suite = Smt_circuits.Suite

let lib = Library.default ()
let tech = Library.tech lib

let adder () = Generators.ripple_adder ~registered:true ~name:"ra" ~bits:8 lib

let period_for nl margin =
  let probe = 1e6 in
  let sta = Sta.analyze (Sta.config ~clock_period:probe ()) nl in
  (probe -. Sta.wns sta) *. (1.0 +. margin)

(* --- Dual-Vth assignment --- *)

let test_assign_swaps_and_meets_timing () =
  let nl = adder () in
  let cfg = Sta.config ~clock_period:(period_for nl 0.30) () in
  let r = Vth_assign.assign cfg nl in
  Alcotest.(check bool) "some cells swapped" true (r.Vth_assign.swapped > 0);
  Alcotest.(check bool) "timing met" true (Sta.meets_timing r.Vth_assign.sta);
  (* swapped count matches the netlist *)
  let hv_count =
    List.length
      (List.filter
         (fun i ->
           let c = Netlist.cell nl i in
           c.Cell.vth = Vth.High && c.Cell.style = Vth.Plain)
         (Netlist.live_insts nl))
  in
  Alcotest.(check int) "count consistent" r.Vth_assign.swapped hv_count

let test_assign_reduces_leakage () =
  let nl = adder () in
  let before = (Leakage.standby nl).Leakage.total in
  let cfg = Sta.config ~clock_period:(period_for nl 0.30) () in
  ignore (Vth_assign.assign cfg nl);
  Alcotest.(check bool) "leakage drops" true ((Leakage.standby nl).Leakage.total < before)

let test_assign_no_slack_no_swap () =
  let nl = adder () in
  (* period exactly at the critical path: nothing may slow down (allow
     float-epsilon residue from the period probe round trip) *)
  let cfg = Sta.config ~clock_period:(period_for nl 0.0) () in
  let r = Vth_assign.assign cfg nl in
  Alcotest.(check bool) "timing preserved at zero margin" true
    (Sta.wns r.Vth_assign.sta >= -1e-6)

let test_assign_more_margin_more_swaps () =
  let nl1 = adder () and nl2 = adder () in
  let r1 = Vth_assign.assign (Sta.config ~clock_period:(period_for nl1 0.05) ()) nl1 in
  let r2 = Vth_assign.assign (Sta.config ~clock_period:(period_for nl2 0.60) ()) nl2 in
  Alcotest.(check bool) "looser clock, more high-vth" true
    (r2.Vth_assign.swapped >= r1.Vth_assign.swapped)

let test_assign_preserves_function () =
  let nl = adder () in
  let golden = Clone.copy nl in
  ignore (Vth_assign.assign (Sta.config ~clock_period:(period_for nl 0.30) ()) nl);
  Alcotest.(check bool) "equivalent after assignment" true
    (Smt_sim.Equiv.equivalent ~vectors:64 golden nl)

let test_low_vth_cells_listing () =
  let nl = adder () in
  let all = Vth_assign.low_vth_cells nl in
  Alcotest.(check bool) "initially all comb+ff low" true (List.length all > 0);
  ignore (Vth_assign.assign (Sta.config ~clock_period:(period_for nl 0.30) ()) nl);
  let remaining = Vth_assign.low_vth_cells nl in
  Alcotest.(check bool) "fewer remain" true (List.length remaining < List.length all)

(* --- MT replacement --- *)

let prepared ?(margin = 0.30) () =
  let nl = adder () in
  let cfg = Sta.config ~clock_period:(period_for nl margin) () in
  ignore (Vth_assign.assign { cfg with Sta.clock_period = cfg.Sta.clock_period *. 0.9 } nl);
  (nl, cfg)

let test_replace_improved () =
  let nl, _ = prepared () in
  let lv_before = List.length (Vth_assign.low_vth_cells nl) in
  let n = Mt_replace.replace Mt_replace.Improved nl in
  Alcotest.(check bool) "replaced some" true (n > 0);
  let mt = Mt_replace.mt_cells nl in
  Alcotest.(check int) "all are MT now" n (List.length mt);
  List.iter
    (fun i ->
      Alcotest.(check bool) "style is no-vgnd" true
        ((Netlist.cell nl i).Cell.style = Vth.Mt_no_vgnd))
    mt;
  (* flip-flops were never replaced *)
  Netlist.iter_insts nl (fun i ->
      let c = Netlist.cell nl i in
      if c.Cell.kind = Func.Dff then
        Alcotest.(check bool) "ff not MT" false (Cell.is_mt c));
  Alcotest.(check bool) "comb lv all gone" true
    (List.for_all
       (fun i -> (Netlist.cell nl i).Cell.kind = Func.Dff)
       (Vth_assign.low_vth_cells nl));
  Alcotest.(check bool) "count <= lv cells" true (n <= lv_before)

let test_replace_conventional () =
  let nl, _ = prepared () in
  let n = Mt_replace.replace Mt_replace.Conventional nl in
  Alcotest.(check bool) "replaced some" true (n > 0);
  List.iter
    (fun i ->
      Alcotest.(check bool) "style embedded" true
        ((Netlist.cell nl i).Cell.style = Vth.Mt_embedded))
    (Mt_replace.mt_cells nl)

let test_replace_preserves_function () =
  let nl, _ = prepared () in
  let golden = Clone.copy nl in
  ignore (Mt_replace.replace Mt_replace.Improved nl);
  Alcotest.(check bool) "equivalent after replacement" true
    (Smt_sim.Equiv.equivalent ~vectors:64 golden nl)

(* --- switch insertion --- *)

let inserted ?(minimize_holders = true) () =
  let nl, cfg = prepared () in
  ignore (Mt_replace.replace Mt_replace.Improved nl);
  let place = Placement.place nl in
  let r = Switch_insert.insert ~minimize_holders place in
  (nl, place, cfg, r)

let test_insert_initial_structure () =
  let nl, _, _, r = inserted () in
  Alcotest.(check (list int)) "exactly one switch" [ r.Switch_insert.initial_switch ]
    (Netlist.switches nl);
  (* every MT cell hangs from it *)
  List.iter
    (fun i ->
      Alcotest.(check (option int)) "attached" (Some r.Switch_insert.initial_switch)
        (Netlist.vgnd_switch nl i))
    (Mt_replace.mt_cells nl);
  (* netlist is structurally complete for the post-MT phase *)
  Alcotest.(check (list string)) "post-MT valid" [] (Check.validate ~phase:Check.Post_mt nl)

let test_insert_requires_pending_cells () =
  let nl = adder () in
  let place = Placement.place nl in
  Alcotest.(check bool) "raises without MT cells" true
    (try
       ignore (Switch_insert.insert place);
       false
     with Invalid_argument _ -> true)

let test_holder_minimization () =
  let _, _, _, r_min = inserted ~minimize_holders:true () in
  let _, _, _, r_all = inserted ~minimize_holders:false () in
  Alcotest.(check bool) "some holders avoided" true (r_min.Switch_insert.holders_avoided > 0);
  Alcotest.(check bool) "minimized < every-net" true
    (r_min.Switch_insert.holders_inserted < r_all.Switch_insert.holders_inserted);
  Alcotest.(check int) "avoided + inserted is invariant"
    (r_all.Switch_insert.holders_inserted + r_all.Switch_insert.holders_avoided)
    (r_min.Switch_insert.holders_inserted + r_min.Switch_insert.holders_avoided)

let test_insert_standby_safe () =
  (* with holders inserted, no net anywhere floats in standby *)
  let nl, _, _, _ = inserted () in
  let sim = Smt_sim.Simulator.create nl in
  Smt_sim.Simulator.reset sim;
  let inputs = List.map (fun (name, _) -> (name, Smt_sim.Logic.T)) (Netlist.inputs nl) in
  Smt_sim.Simulator.set_inputs sim inputs;
  Smt_sim.Simulator.propagate ~mode:Smt_sim.Simulator.Standby sim;
  (* every floating net must feed only MT cells (whose inputs are dont-care
     in standby) *)
  List.iter
    (fun nid ->
      List.iter
        (fun (p : Netlist.pin) ->
          Alcotest.(check bool)
            (Printf.sprintf "floating %s reaches only MT cells" (Netlist.net_name nl nid))
            true
            (Cell.is_mt (Netlist.cell nl p.Netlist.inst)))
        (Netlist.sinks nl nid))
    (Smt_sim.Simulator.floating_nets sim)

let test_mte_is_input () =
  let nl, _, _, r = inserted () in
  Alcotest.(check bool) "MTE is a primary input" true (Netlist.is_pi nl r.Switch_insert.mte_net);
  Alcotest.(check bool) "MTE has sinks" true
    (Switch_insert.mte_sinks nl r.Switch_insert.mte_net <> [])

(* --- clustering --- *)

let clustered ?params () =
  let nl, place, cfg, r = inserted () in
  let act = Activity.estimate ~cycles:64 nl in
  let built = Cluster.build ~activity:act ?params place ~mte_net:r.Switch_insert.mte_net in
  (nl, place, cfg, act, built)

let test_cluster_constraints_respected () =
  let nl, place, _, act, built = clustered () in
  let p = Cluster.default_params tech in
  Alcotest.(check bool) "clusters exist" true (built.Cluster.clusters <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool) "cell cap" true
        (List.length c.Cluster.members <= p.Cluster.cell_limit);
      Alcotest.(check bool) "length cap" true (c.Cluster.wire_length <= p.Cluster.length_limit);
      Alcotest.(check bool) "bounce under limit" true
        (c.Cluster.bounce <= p.Cluster.bounce_limit +. 1e-9);
      Alcotest.(check bool) "sustained under EM" true
        (c.Cluster.sustained_ua <= p.Cluster.current_limit))
    built.Cluster.clusters;
  (* every MT cell in exactly one cluster *)
  let assigned = List.concat_map (fun c -> c.Cluster.members) built.Cluster.clusters in
  let mt = Mt_replace.mt_cells nl in
  Alcotest.(check int) "all cells clustered" (List.length mt) (List.length assigned);
  Alcotest.(check int) "no duplicates" (List.length assigned)
    (List.length (List.sort_uniq compare assigned));
  ignore act;
  ignore place

let test_cluster_replaces_initial_switch () =
  let nl, _, _, _, built = clustered () in
  let switches = Netlist.switches nl in
  Alcotest.(check int) "one switch per cluster" (List.length built.Cluster.clusters)
    (List.length switches);
  Alcotest.(check (list string)) "valid post-MT" [] (Check.validate ~phase:Check.Post_mt nl)

let test_cluster_switch_sized_for_bounce () =
  let nl, place, _, act, _ = clustered () in
  let reports =
    Bounce.analyze ~activity:act nl ~wire_length_of:(fun sw -> Cluster.vgnd_length place sw)
  in
  Alcotest.(check int) "no bounce violations at estimates" 0 (Bounce.violations reports)

let test_cluster_diversity_saves_width () =
  let p_div = Cluster.default_params tech in
  let p_nodiv = { p_div with Cluster.diversity = false } in
  let _, _, _, _, with_div = clustered ~params:p_div () in
  let _, _, _, _, without = clustered ~params:p_nodiv () in
  Alcotest.(check bool) "diversity sizing narrows total switch width" true
    (with_div.Cluster.total_switch_width < without.Cluster.total_switch_width)

let test_cluster_tighter_length_more_clusters () =
  let p = Cluster.default_params tech in
  let tight = { p with Cluster.length_limit = p.Cluster.length_limit /. 3.0 } in
  let _, _, _, _, base = clustered ~params:p () in
  let _, _, _, _, tightened = clustered ~params:tight () in
  Alcotest.(check bool) "shorter VGND lines need more clusters" true
    (List.length tightened.Cluster.clusters >= List.length base.Cluster.clusters)

let test_cluster_em_cap_enforced () =
  let p = { (Cluster.default_params tech) with Cluster.cell_limit = 3 } in
  let _, _, _, _, built = clustered ~params:p () in
  List.iter
    (fun c -> Alcotest.(check bool) "<=3 cells" true (List.length c.Cluster.members <= 3))
    built.Cluster.clusters

let test_required_width () =
  let p = Cluster.default_params tech in
  (match Cluster.required_width tech p ~current_ua:20.0 ~wire_length:0.0 with
  | Some w ->
    let b = Bounce.bounce_v tech ~switch_width:w ~wire_length:0.0 ~current_ua:20.0 in
    Alcotest.(check bool) "sized width meets limit" true (b <= p.Cluster.bounce_limit)
  | None -> Alcotest.fail "feasible case");
  (* wire so long the budget is blown: infeasible *)
  Alcotest.(check bool) "infeasible detected" true
    (Cluster.required_width tech p ~current_ua:1000.0 ~wire_length:10000.0 = None)

(* --- MTE buffering --- *)

let test_mte_buffer_tree () =
  let nl, place, _, _, _ = clustered () in
  let mte = Option.get (Netlist.find_net nl "MTE") in
  let before = List.length (Netlist.sinks nl mte) in
  let r = Mte.buffer_tree ~max_fanout:4 place ~mte_net:mte in
  if before > 4 then begin
    Alcotest.(check bool) "buffers inserted" true (r.Mte.buffers > 0);
    Alcotest.(check bool) "root fanout capped" true (r.Mte.root_fanout <= 4)
  end;
  Alcotest.(check bool) "worst stage fanout capped" true
    (Mte.max_stage_fanout nl mte <= 4);
  Alcotest.(check (list string)) "still valid" [] (Check.validate ~phase:Check.Post_mt nl)

let test_mte_small_net_untouched () =
  let nl, place, _, _, _ = clustered () in
  let mte = Option.get (Netlist.find_net nl "MTE") in
  let r = Mte.buffer_tree ~max_fanout:10000 place ~mte_net:mte in
  Alcotest.(check int) "no buffers needed" 0 r.Mte.buffers

(* --- reoptimization --- *)

(* Pre-route sizing under-estimated the loads (estimation error); the
   extracted loads are much larger, so switching currents rise and some
   clusters bounce above the limit until the re-optimization pass widens
   their footers — the paper's post-route CoolPower invocation. *)
let routed_load _ = 40.0

let test_reopt_fixes_routed_bounce () =
  let nl, place, _, act, _ = clustered () in
  let detour = 1.4 in
  let routed_length sw = Cluster.vgnd_length place sw *. detour in
  let before = Bounce.analyze ~activity:act ~load_of:routed_load nl ~wire_length_of:routed_length in
  Alcotest.(check bool) "extraction exposes violations" true (Bounce.violations before > 0);
  let r = Reopt.reoptimize ~activity:act ~load_of:routed_load ~detour place in
  Alcotest.(check bool) "reopt saw them too" true (r.Reopt.violations_before > 0);
  Alcotest.(check int) "violations repaired" 0 r.Reopt.violations_after;
  let after = Bounce.analyze ~activity:act ~load_of:routed_load nl ~wire_length_of:routed_length in
  Alcotest.(check int) "independent check agrees" 0 (Bounce.violations after)

let test_reopt_widens_for_detours () =
  let _, place, _, act, built = clustered () in
  let r = Reopt.reoptimize ~activity:act ~load_of:routed_load ~detour:1.4 place in
  let widened =
    List.filter (fun a -> a.Reopt.new_width > a.Reopt.old_width) r.Reopt.adjustments
  in
  Alcotest.(check bool) "some switches widened" true (widened <> []);
  Alcotest.(check int) "one adjustment per cluster" (List.length built.Cluster.clusters)
    (List.length r.Reopt.adjustments)

(* --- hold-fix ECO --- *)

let test_eco_fixes_injected_skew () =
  let nl, place, cfg, _, _ = clustered () in
  (* inject heavy capture-side clock latency to create hold violations *)
  let rng = Smt_util.Rng.create 5 in
  let latencies = Hashtbl.create 97 in
  Netlist.iter_insts nl (fun i ->
      if (Netlist.cell nl i).Cell.kind = Func.Dff then
        Hashtbl.replace latencies i (Smt_util.Rng.float rng 60.0));
  let cfg =
    {
      cfg with
      Sta.clock_latency =
        (fun i -> match Hashtbl.find_opt latencies i with Some l -> l | None -> 0.0);
    }
  in
  let sta0 = Sta.analyze cfg nl in
  Alcotest.(check bool) "skew injected a violation" true (not (Sta.meets_hold sta0));
  let r = Eco.fix_hold cfg place in
  Alcotest.(check bool) "buffers added" true (r.Eco.buffers_added > 0);
  Alcotest.(check bool) "hold clean" true (r.Eco.hold_after >= 0.0);
  Alcotest.(check bool) "hold improved" true (r.Eco.hold_after > r.Eco.hold_before);
  let sta1 = Sta.analyze cfg nl in
  Alcotest.(check bool) "independent STA agrees" true (Sta.meets_hold sta1)

let test_eco_noop_when_clean () =
  let nl, place, cfg, _, _ = clustered () in
  let sta = Sta.analyze cfg nl in
  if Sta.meets_hold sta then begin
    let r = Eco.fix_hold cfg place in
    Alcotest.(check int) "no buffers" 0 r.Eco.buffers_added
  end;
  ignore nl

let test_eco_respects_setup () =
  (* an endpoint that is both hold-violating and setup-critical must NOT be
     padded: the ECO leaves it for skew rework instead of breaking setup *)
  let b = Smt_netlist.Builder.create ~name:"guard" ~lib in
  let clk = Smt_netlist.Builder.input ~clock:true b "clk" in
  let d = Smt_netlist.Builder.input b "d" in
  let q1 = Smt_netlist.Builder.dff b ~d ~clk in
  let q2 = Smt_netlist.Builder.dff b ~d:q1 ~clk in
  let o = Smt_netlist.Builder.output b "o" in
  Smt_netlist.Builder.gate_into b Func.Buf [ q2 ] o;
  let nl = Smt_netlist.Builder.netlist b in
  let place = Placement.place nl in
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
  (* a 60ps capture skew: enough to violate hold on the wire-only path
     without breaking any setup check by itself *)
  let base = Sta.config ~clock_period:500.0 () in
  let latency i = if i = capture then 60.0 else 0.0 in
  let cfg = { base with Sta.clock_latency = latency } in
  let sta0 = Sta.analyze cfg nl in
  Alcotest.(check bool) "hold violated" true (not (Sta.meets_hold sta0));
  let area_before = Netlist.total_area nl in
  let r = Eco.fix_hold cfg place in
  (* the only violating endpoint is unaffordable... or padded within its
     slack; either way setup must survive *)
  Alcotest.(check bool) "setup preserved" true (r.Eco.setup_after >= 0.0);
  ignore area_before

let test_eco_preserves_function () =
  let nl, place, cfg, _, _ = clustered () in
  let golden = Clone.copy nl in
  let latencies = Hashtbl.create 97 in
  Netlist.iter_insts nl (fun i ->
      if (Netlist.cell nl i).Cell.kind = Func.Dff then
        Hashtbl.replace latencies i (if i mod 2 = 0 then 80.0 else 0.0));
  let cfg =
    {
      cfg with
      Sta.clock_latency =
        (fun i -> match Hashtbl.find_opt latencies i with Some l -> l | None -> 0.0);
    }
  in
  ignore (Eco.fix_hold cfg place);
  Alcotest.(check bool) "equivalent after ECO" true
    (Smt_sim.Equiv.equivalent ~vectors:48 golden nl)

(* --- fig. 2/3 example --- *)

let test_fig23_holder_rule () =
  let nl = Suite.fig23_example lib in
  let cfg = Sta.config ~clock_period:(period_for nl 0.10) () in
  ignore (Vth_assign.assign { cfg with Sta.clock_period = cfg.Sta.clock_period *. 0.95 } nl);
  let n = Mt_replace.replace Mt_replace.Improved nl in
  if n > 0 then begin
    let place = Placement.place nl in
    let r = Switch_insert.insert place in
    (* the paper's claim: not every MT-driven net needs a holder *)
    Alcotest.(check bool) "holder count below MT count" true
      (r.Switch_insert.holders_inserted <= n);
    Alcotest.(check (list string)) "valid" [] (Check.validate ~phase:Check.Post_mt nl)
  end

let () =
  Alcotest.run "smt_core"
    [
      ( "vth-assign",
        [
          Alcotest.test_case "swaps & meets timing" `Quick test_assign_swaps_and_meets_timing;
          Alcotest.test_case "reduces leakage" `Quick test_assign_reduces_leakage;
          Alcotest.test_case "zero margin safe" `Quick test_assign_no_slack_no_swap;
          Alcotest.test_case "margin monotone" `Quick test_assign_more_margin_more_swaps;
          Alcotest.test_case "function preserved" `Quick test_assign_preserves_function;
          Alcotest.test_case "low-vth listing" `Quick test_low_vth_cells_listing;
        ] );
      ( "mt-replace",
        [
          Alcotest.test_case "improved style" `Quick test_replace_improved;
          Alcotest.test_case "conventional style" `Quick test_replace_conventional;
          Alcotest.test_case "function preserved" `Quick test_replace_preserves_function;
        ] );
      ( "switch-insert",
        [
          Alcotest.test_case "initial structure" `Quick test_insert_initial_structure;
          Alcotest.test_case "requires MT cells" `Quick test_insert_requires_pending_cells;
          Alcotest.test_case "holder minimization" `Quick test_holder_minimization;
          Alcotest.test_case "standby safe" `Quick test_insert_standby_safe;
          Alcotest.test_case "MTE input" `Quick test_mte_is_input;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "constraints respected" `Quick test_cluster_constraints_respected;
          Alcotest.test_case "replaces initial switch" `Quick test_cluster_replaces_initial_switch;
          Alcotest.test_case "sized for bounce" `Quick test_cluster_switch_sized_for_bounce;
          Alcotest.test_case "diversity saves width" `Quick test_cluster_diversity_saves_width;
          Alcotest.test_case "length cap vs clusters" `Quick test_cluster_tighter_length_more_clusters;
          Alcotest.test_case "EM cap" `Quick test_cluster_em_cap_enforced;
          Alcotest.test_case "required width math" `Quick test_required_width;
        ] );
      ( "mte",
        [
          Alcotest.test_case "buffer tree" `Quick test_mte_buffer_tree;
          Alcotest.test_case "small net untouched" `Quick test_mte_small_net_untouched;
        ] );
      ( "reopt",
        [
          Alcotest.test_case "fixes routed bounce" `Quick test_reopt_fixes_routed_bounce;
          Alcotest.test_case "widens for detours" `Quick test_reopt_widens_for_detours;
        ] );
      ( "eco",
        [
          Alcotest.test_case "fixes injected skew" `Quick test_eco_fixes_injected_skew;
          Alcotest.test_case "setup survives padding" `Quick test_eco_respects_setup;
          Alcotest.test_case "noop when clean" `Quick test_eco_noop_when_clean;
          Alcotest.test_case "function preserved" `Quick test_eco_preserves_function;
        ] );
      ( "fig23",
        [ Alcotest.test_case "holder rule on the example" `Quick test_fig23_holder_rule ] );
    ]
