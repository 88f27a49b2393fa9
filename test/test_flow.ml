module Netlist = Smt_netlist.Netlist
module Check = Smt_check.Drc
module Clone = Smt_netlist.Clone
module Nl_stats = Smt_netlist.Nl_stats
module Flow = Smt_core.Flow
module Compare = Smt_core.Compare
module Library = Smt_cell.Library
module Generators = Smt_circuits.Generators
module Suite = Smt_circuits.Suite

let lib = Library.default ()

(* A mid-size registered circuit: big enough for clustering to matter,
   small enough for fast tests. *)
let gen () = Generators.multiplier ~name:"m8" ~bits:8 lib

let fast_options = { Flow.default_options with Flow.activity_cycles = 48 }

let reports =
  lazy
    (match Flow.run_all ~options:fast_options gen with
    | [ d; c; i ] -> (d, c, i)
    | _ -> assert false)

let test_all_flows_meet_timing () =
  let d, c, i = Lazy.force reports in
  List.iter
    (fun (r : Flow.report) ->
      Alcotest.(check bool)
        (Flow.technique_name r.Flow.technique ^ " meets setup")
        true r.Flow.timing_met;
      Alcotest.(check bool)
        (Flow.technique_name r.Flow.technique ^ " meets hold")
        true r.Flow.hold_met)
    [ d; c; i ]

let test_same_clock_period () =
  let d, c, i = Lazy.force reports in
  Alcotest.(check (float 1e-6)) "dual = conventional" d.Flow.clock_period c.Flow.clock_period;
  Alcotest.(check (float 1e-6)) "dual = improved" d.Flow.clock_period i.Flow.clock_period

let test_leakage_ordering () =
  let d, c, i = Lazy.force reports in
  Alcotest.(check bool) "dual >> conventional" true
    (d.Flow.standby_nw > 2.0 *. c.Flow.standby_nw);
  Alcotest.(check bool) "conventional > improved" true
    (c.Flow.standby_nw > i.Flow.standby_nw)

let test_area_ordering () =
  let d, c, i = Lazy.force reports in
  Alcotest.(check bool) "conventional largest" true (c.Flow.area > i.Flow.area);
  Alcotest.(check bool) "improved above dual" true (i.Flow.area > d.Flow.area)

let test_structure_counts () =
  let d, c, i = Lazy.force reports in
  Alcotest.(check int) "dual has no switches" 0 d.Flow.n_switches;
  Alcotest.(check int) "dual has no MT cells" 0 d.Flow.n_mt_cells;
  Alcotest.(check int) "conventional: switches embedded, none standalone" 0 c.Flow.n_switches;
  Alcotest.(check bool) "conventional has MT cells" true (c.Flow.n_mt_cells > 0);
  Alcotest.(check bool) "improved has clusters" true (i.Flow.n_clusters > 0);
  Alcotest.(check int) "one switch per cluster" i.Flow.n_clusters i.Flow.n_switches;
  Alcotest.(check bool) "plural cells per switch (the paper's point)" true
    (i.Flow.n_mt_cells > i.Flow.n_switches);
  Alcotest.(check int) "same MT population in both SMT flows" c.Flow.n_mt_cells
    i.Flow.n_mt_cells;
  Alcotest.(check bool) "holders only in improved" true
    (i.Flow.n_holders > 0 && c.Flow.n_holders = 0);
  Alcotest.(check bool) "some holders avoided" true (i.Flow.holders_avoided > 0)

let test_bounce_under_limit () =
  let _, _, i = Lazy.force reports in
  let tech = Library.tech lib in
  Alcotest.(check int) "no violations" 0 i.Flow.bounce_violations;
  Alcotest.(check bool) "worst under limit" true
    (i.Flow.worst_bounce <= tech.Smt_cell.Tech.bounce_limit +. 1e-9);
  Alcotest.(check bool) "bounce nonzero (switches really shared)" true
    (i.Flow.worst_bounce > 0.0)

let test_switch_width_savings () =
  let _, c, i = Lazy.force reports in
  (* total footer width: improved (shared, activity-sized) should be well
     below conventional (per-cell worst-case) *)
  Alcotest.(check bool) "shared switches are narrower in total" true
    (i.Flow.total_switch_width < 0.6 *. c.Flow.total_switch_width)

let test_final_netlists_valid () =
  (* run flows on fresh netlists and validate the survivors *)
  let check_one technique phase =
    let nl = gen () in
    ignore (Flow.run ~options:fast_options technique nl);
    Alcotest.(check (list string))
      (Flow.technique_name technique ^ " valid")
      [] (Check.validate ~phase nl)
  in
  check_one Flow.Dual_vth Check.Pre_mt;
  check_one Flow.Improved_smt Check.Post_mt;
  check_one Flow.Conventional_smt Check.Post_mt

let test_flows_preserve_function () =
  List.iter
    (fun technique ->
      let nl = gen () in
      let golden = Clone.copy nl in
      (* flows add an MTE input; give the golden one too so interfaces match *)
      ignore (Flow.run ~options:fast_options technique nl);
      (match Netlist.find_net golden "MTE" with
      | None when Netlist.find_net nl "MTE" <> None ->
        ignore (Netlist.add_input golden "MTE")
      | Some _ | None -> ());
      Alcotest.(check bool)
        (Flow.technique_name technique ^ " equivalent")
        true
        (Smt_sim.Equiv.equivalent ~vectors:32 golden nl))
    [ Flow.Dual_vth; Flow.Conventional_smt; Flow.Improved_smt ]

let test_stages_recorded () =
  let nl = gen () in
  let r = Flow.run ~options:fast_options Flow.Improved_smt nl in
  let names = List.map (fun s -> s.Flow.stage_name) r.Flow.stages in
  Alcotest.(check bool) ">= 7 stages" true (List.length names >= 7);
  (* the Fig.4 ordering: synthesis before replacement before clustering
     before routing before ECO *)
  let index name =
    let rec find i = function
      | [] -> Alcotest.fail (name ^ " stage missing")
      | s :: rest ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec loop j = j + nn <= nh && (String.sub hay j nn = needle || loop (j + 1)) in
          loop 0
        in
        if contains s name then i else find (i + 1) rest
    in
    find 0 names
  in
  Alcotest.(check bool) "synthesis first" true (index "physical-synthesis" < index "high-Vth");
  Alcotest.(check bool) "replacement before insertion" true
    (index "high-Vth" < index "switch & holder");
  Alcotest.(check bool) "insertion before clustering" true
    (index "switch & holder" < index "clustering");
  Alcotest.(check bool) "clustering before routing" true (index "clustering" < index "routing");
  Alcotest.(check bool) "routing before re-optimization" true
    (index "routing" < index "re-optimization");
  Alcotest.(check bool) "ECO last" true (index "ECO" = List.length names - 1)

let test_initial_switch_bounce_story () =
  (* the single initial switch must violate the bounce limit, and the
     clustering stage must fix it — the reason the optimizer exists *)
  let nl = gen () in
  let r = Flow.run ~options:fast_options Flow.Improved_smt nl in
  let stage name =
    List.find
      (fun s ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec loop j = j + nn <= nh && (String.sub hay j nn = needle || loop (j + 1)) in
          loop 0
        in
        contains s.Flow.stage_name name)
      r.Flow.stages
  in
  let tech = Library.tech lib in
  let initial = stage "initial structure" in
  let after = stage "clustering" in
  Alcotest.(check bool) "initial structure bounces over the limit" true
    (initial.Flow.stage_worst_bounce > tech.Smt_cell.Tech.bounce_limit);
  Alcotest.(check bool) "clustering brings it under" true
    (after.Flow.stage_worst_bounce <= tech.Smt_cell.Tech.bounce_limit +. 1e-9)

let test_ablation_no_reopt_leaves_violations () =
  let nl = gen () in
  let r =
    Flow.run
      ~options:{ fast_options with Flow.reoptimize = false; Flow.detour = 1.5 }
      Flow.Improved_smt nl
  in
  Alcotest.(check bool) "skipping re-optimization leaves routed bounce violations" true
    (r.Flow.bounce_violations > 0);
  let nl2 = gen () in
  let r2 =
    Flow.run
      ~options:{ fast_options with Flow.reoptimize = true; Flow.detour = 1.5 }
      Flow.Improved_smt nl2
  in
  Alcotest.(check int) "re-optimization clears them" 0 r2.Flow.bounce_violations

let test_ablation_holders () =
  let nl = gen () in
  let r_min = Flow.run ~options:fast_options Flow.Improved_smt nl in
  let nl2 = gen () in
  let r_all =
    Flow.run ~options:{ fast_options with Flow.minimize_holders = false } Flow.Improved_smt nl2
  in
  Alcotest.(check bool) "holder minimization saves area" true (r_min.Flow.area < r_all.Flow.area);
  Alcotest.(check bool) "and leakage" true (r_min.Flow.standby_nw < r_all.Flow.standby_nw)

let test_table1_row () =
  let row = Compare.table1_row ~options:fast_options gen in
  (match row.Compare.entries with
  | [ d; c; i ] ->
    Alcotest.(check (float 1e-9)) "dual area normalized" 100.0 d.Compare.area_pct;
    Alcotest.(check (float 1e-9)) "dual leakage normalized" 100.0 d.Compare.leakage_pct;
    Alcotest.(check bool) "con area > 100%" true (c.Compare.area_pct > 100.0);
    Alcotest.(check bool) "imp between" true
      (i.Compare.area_pct > 100.0 && i.Compare.area_pct < c.Compare.area_pct);
    Alcotest.(check bool) "leakages below 100%" true
      (c.Compare.leakage_pct < 100.0 && i.Compare.leakage_pct < c.Compare.leakage_pct)
  | _ -> Alcotest.fail "expected three entries");
  let area_saving, leak_saving = Compare.improvement row in
  Alcotest.(check bool) "improvement positive" true (area_saving > 0.0 && leak_saving > 0.0);
  let rendered = Compare.render [ row ] in
  Alcotest.(check bool) "renders" true (String.length rendered > 100);
  Alcotest.(check bool) "details render" true
    (String.length (Compare.render_details [ row ]) > 100)

let test_mte_fanout_cap_respected () =
  let nl = gen () in
  let r =
    Flow.run
      ~options:{ fast_options with Flow.mte_max_fanout = Some 5 }
      Flow.Improved_smt nl
  in
  ignore r;
  match Netlist.find_net nl "MTE" with
  | Some mte ->
    Alcotest.(check bool) "every MTE stage within the cap" true
      (Smt_core.Mte.max_stage_fanout nl mte <= 5)
  | None -> Alcotest.fail "MTE net missing"

let test_flow_deterministic () =
  let r1 = Flow.run ~options:fast_options Flow.Improved_smt (gen ()) in
  let r2 = Flow.run ~options:fast_options Flow.Improved_smt (gen ()) in
  Alcotest.(check (float 1e-9)) "same area" r1.Flow.area r2.Flow.area;
  Alcotest.(check (float 1e-9)) "same leakage" r1.Flow.standby_nw r2.Flow.standby_nw;
  Alcotest.(check int) "same clusters" r1.Flow.n_clusters r2.Flow.n_clusters

let test_flow_on_suite_circuits () =
  (* smoke: every named circuit survives the improved flow *)
  List.iter
    (fun (name, g) ->
      if name <> "c17" && name <> "fig23" then begin
        let nl = g lib in
        let r = Flow.run ~options:fast_options Flow.Improved_smt nl in
        Alcotest.(check bool) (name ^ " produces a report") true (r.Flow.area > 0.0)
      end)
    [ ("tiny", Suite.tiny); ("alu8", fun l -> Generators.alu ~name:"alu8" ~bits:8 l) ]

let () =
  Alcotest.run "smt_flow"
    [
      ( "outcomes",
        [
          Alcotest.test_case "timing met everywhere" `Quick test_all_flows_meet_timing;
          Alcotest.test_case "same clock period" `Quick test_same_clock_period;
          Alcotest.test_case "leakage ordering" `Quick test_leakage_ordering;
          Alcotest.test_case "area ordering" `Quick test_area_ordering;
          Alcotest.test_case "structure counts" `Quick test_structure_counts;
          Alcotest.test_case "bounce under limit" `Quick test_bounce_under_limit;
          Alcotest.test_case "switch width savings" `Quick test_switch_width_savings;
        ] );
      ( "correctness",
        [
          Alcotest.test_case "final netlists valid" `Quick test_final_netlists_valid;
          Alcotest.test_case "function preserved" `Slow test_flows_preserve_function;
          Alcotest.test_case "MTE fanout cap" `Quick test_mte_fanout_cap_respected;
          Alcotest.test_case "deterministic" `Quick test_flow_deterministic;
          Alcotest.test_case "suite circuits" `Slow test_flow_on_suite_circuits;
        ] );
      ( "stages",
        [
          Alcotest.test_case "fig.4 ordering" `Quick test_stages_recorded;
          Alcotest.test_case "initial switch bounce story" `Quick test_initial_switch_bounce_story;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "no reopt leaves violations" `Quick test_ablation_no_reopt_leaves_violations;
          Alcotest.test_case "holder minimization" `Quick test_ablation_holders;
        ] );
      ("table1", [ Alcotest.test_case "row shape" `Quick test_table1_row ]);
    ]
