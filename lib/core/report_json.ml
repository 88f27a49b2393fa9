module Leakage = Smt_power.Leakage

(* All JSON fragments come from the shared emitter, which also maps
   infinities to null — a [wns] of +inf (endpoint-free netlist) used to
   produce invalid JSON here. *)
let str = Smt_obs.Obs_json.str
let num = Smt_obs.Obs_json.num
let boolean = Smt_obs.Obs_json.boolean
let obj = Smt_obs.Obs_json.obj
let arr = Smt_obs.Obs_json.arr

let leakage_json (l : Leakage.breakdown) =
  obj
    (("total", num l.Leakage.total)
    :: List.map (fun (_, key, v) -> (key, num v)) (Explain.contributors l))

let stage_json (s : Flow.stage) =
  (* The prof block appears only when profiling was on, so unprofiled
     reports stay byte-identical to earlier builds (same convention as the
     guard's check block below). *)
  let prof_fields =
    match s.Flow.stage_prof with
    | None -> []
    | Some p -> [ ("prof", Smt_obs.Prof.stats_json p) ]
  in
  obj
    ([
       ("name", str s.Flow.stage_name);
       ("area", num s.Flow.stage_area);
       ("standby_nw", num s.Flow.stage_standby_nw);
       ("wns_ps", num s.Flow.stage_wns);
       ("worst_bounce_v", num s.Flow.stage_worst_bounce);
       ("switches", string_of_int s.Flow.stage_switches);
       ("holders", string_of_int s.Flow.stage_holders);
       ("duration_ms", num s.Flow.stage_ms);
     ]
    @ prof_fields)

let of_report (r : Flow.report) =
  (* Guard results appear only when a guard actually recorded something
     (every violation, finding and repair leaves a diagnostic), so
     guard-off output stays byte-identical to earlier builds. *)
  let check_fields =
    if r.Flow.diagnostics = [] then []
    else
      [
        ( "check",
          obj
            [
              ("violations", string_of_int r.Flow.check_violations);
              ("repairs", string_of_int r.Flow.check_repairs);
              ("diagnostics", arr (List.map str r.Flow.diagnostics));
            ] );
      ]
  in
  obj
    ([
      ("technique", str (Flow.technique_name r.Flow.technique));
      ("circuit", str r.Flow.circuit);
      ("clock_period_ps", num r.Flow.clock_period);
      ("area_um2", num r.Flow.area);
      ("standby_nw", num r.Flow.standby_nw);
      ("leakage", leakage_json r.Flow.leakage);
      ("wns_ps", num r.Flow.wns);
      ("hold_slack_ps", num r.Flow.hold_slack);
      ("worst_bounce_v", num r.Flow.worst_bounce);
      ("bounce_violations", string_of_int r.Flow.bounce_violations);
      ("timing_met", boolean r.Flow.timing_met);
      ("hold_met", boolean r.Flow.hold_met);
      ("mt_cells", string_of_int r.Flow.n_mt_cells);
      ("switches", string_of_int r.Flow.n_switches);
      ("clusters", string_of_int r.Flow.n_clusters);
      ("holders", string_of_int r.Flow.n_holders);
      ("holders_avoided", string_of_int r.Flow.holders_avoided);
      ("mte_buffers", string_of_int r.Flow.n_mte_buffers);
      ("cts_buffers", string_of_int r.Flow.n_cts_buffers);
      ("hold_buffers", string_of_int r.Flow.n_hold_buffers);
      ("high_vth_swaps", string_of_int r.Flow.swapped_to_high_vth);
      ("cells_downsized", string_of_int r.Flow.cells_downsized);
      ("ffs_retained", string_of_int r.Flow.ffs_retained);
      ("reopt_resized", string_of_int r.Flow.reopt_resized);
      ("reopt_violations_repaired", string_of_int r.Flow.reopt_violations_repaired);
      ("mt_area_fraction", num r.Flow.mt_area_fraction);
      ("total_switch_width", num r.Flow.total_switch_width);
      ("stages", arr (List.map stage_json r.Flow.stages));
    ]
    @ check_fields)

let entry_json (e : Compare.entry) =
  obj
    [
      ("technique", str (Flow.technique_name e.Compare.technique));
      ("area_pct", num e.Compare.area_pct);
      ("leakage_pct", num e.Compare.leakage_pct);
      ("report", of_report e.Compare.report);
    ]

let of_rows rows =
  arr
    (List.map
       (fun (row : Compare.row) ->
         obj
           [
             ("circuit", str row.Compare.circuit);
             ("entries", arr (List.map entry_json row.Compare.entries));
           ])
       rows)
