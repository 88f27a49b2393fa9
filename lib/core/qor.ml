module Suite = Smt_circuits.Suite
module Library = Smt_cell.Library
module Metrics = Smt_obs.Metrics
module Snapshot = Smt_obs.Snapshot

let default_workloads =
  List.concat_map
    (fun (cname, gen) ->
      List.map
        (fun t -> (Printf.sprintf "%s/%s" cname (Flow.technique_slug t), gen, t))
        [ Flow.Dual_vth; Flow.Conventional_smt; Flow.Improved_smt ])
    [ ("circuit_a", Suite.circuit_a); ("circuit_b", Suite.circuit_b) ]

let counter_delta ~before ~after =
  List.filter_map
    (fun (name, v) ->
      let b = Option.value (List.assoc_opt name before) ~default:0 in
      if v <> b then Some (name, v - b) else None)
    after

let qor_of (r : Flow.report) =
  [
    ("area_um2", r.Flow.area);
    ("standby_nw", r.Flow.standby_nw);
    ("wns_ps", r.Flow.wns);
    ("clusters", float_of_int r.Flow.n_clusters);
    ("switches", float_of_int r.Flow.n_switches);
    ("holders", float_of_int r.Flow.n_holders);
    ("mt_cells", float_of_int r.Flow.n_mt_cells);
    ("total_switch_width", r.Flow.total_switch_width);
  ]

let workload_of_report ~name ~before (r : Flow.report) =
  {
    (Snapshot.workload ~name ~qor:(qor_of r)
       ~counters:(counter_delta ~before ~after:(Metrics.counters ()))
       ~stage_ms:
         (List.map (fun (s : Flow.stage) -> (s.Flow.stage_name, s.Flow.stage_ms)) r.Flow.stages))
    with
    Snapshot.w_prof =
      List.filter_map
        (fun (s : Flow.stage) -> Option.map (fun p -> (s.Flow.stage_name, p)) s.Flow.stage_prof)
        r.Flow.stages;
  }

let collect ?(seed = 1) ?(jobs = 1) ~tag () =
  let options = { Flow.default_options with Flow.seed } in
  Snapshot.make ~tag
    (Smt_obs.Par.map ~jobs
       (fun (name, gen, t) ->
         let before = Metrics.counters () in
         workload_of_report ~name ~before (Flow.run ~options t (gen (Library.default ()))))
       default_workloads)
