module Text_table = Smt_util.Text_table

type entry = {
  technique : Flow.technique;
  report : Flow.report;
  area_pct : float;
  leakage_pct : float;
}

type row = {
  circuit : string;
  entries : entry list;
}

let table1_row ?options ?jobs fresh =
  (* [run_all] reports Dual-Vth first: the baseline every column is
     normalized against. *)
  let reports = Flow.run_all ?options ?jobs fresh in
  let dual = List.hd reports in
  let base_area = dual.Flow.area and base_leak = dual.Flow.standby_nw in
  let entries =
    List.map
      (fun (r : Flow.report) ->
        {
          technique = r.Flow.technique;
          report = r;
          area_pct = 100.0 *. r.Flow.area /. base_area;
          leakage_pct = 100.0 *. r.Flow.standby_nw /. base_leak;
        })
      reports
  in
  { circuit = dual.Flow.circuit; entries }

let find row technique =
  List.find (fun e -> e.technique = technique) row.entries

let improvement row =
  let con = find row Flow.Conventional_smt and imp = find row Flow.Improved_smt in
  ( 1.0 -. (imp.report.Flow.area /. con.report.Flow.area),
    1.0 -. (imp.report.Flow.standby_nw /. con.report.Flow.standby_nw) )

let render rows =
  let header = [ "Circuit"; "Area/Leakage"; "Dual-Vth"; "Con.-SMT"; "Imp.-SMT" ] in
  let body =
    List.concat_map
      (fun row ->
        let area t = Text_table.pct (find row t).area_pct in
        let leak t = Text_table.pct (find row t).leakage_pct in
        [
          [
            row.circuit; "Area";
            area Flow.Dual_vth;
            area Flow.Conventional_smt;
            area Flow.Improved_smt;
          ];
          [
            ""; "Leakage";
            leak Flow.Dual_vth;
            leak Flow.Conventional_smt;
            leak Flow.Improved_smt;
          ];
        ])
      rows
  in
  Text_table.render
    ~aligns:[ Text_table.Left; Text_table.Left; Text_table.Right; Text_table.Right; Text_table.Right ]
    ~header body

let render_details rows =
  let header =
    [
      "Circuit"; "Technique"; "Area um^2"; "Standby nW"; "MT cells"; "MT frac";
      "Switches"; "Holders"; "MTE buf"; "WNS ps"; "Hold ps"; "Bounce V";
    ]
  in
  let body =
    List.concat_map
      (fun row ->
        List.map
          (fun e ->
            let r = e.report in
            [
              row.circuit;
              Flow.technique_name e.technique;
              Text_table.f2 r.Flow.area;
              Text_table.f2 r.Flow.standby_nw;
              string_of_int r.Flow.n_mt_cells;
              Text_table.f2 r.Flow.mt_area_fraction;
              string_of_int r.Flow.n_switches;
              string_of_int r.Flow.n_holders;
              string_of_int r.Flow.n_mte_buffers;
              Text_table.f2 r.Flow.wns;
              Text_table.f2 r.Flow.hold_slack;
              Printf.sprintf "%.4f" r.Flow.worst_bounce;
            ])
          row.entries)
      rows
  in
  Text_table.render ~header body
