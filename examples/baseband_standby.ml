(* The paper's motivating scenario: portable electric appliances, where
   standby leakage drains the battery while the phone does nothing.

   This example runs all three techniques on the datapath-heavy evaluation
   circuit and converts the standby leakage into battery life for a
   baseband-class block, the application domain of the paper's reference
   [3] (a CDMA cellular baseband chip).

     dune exec examples/baseband_standby.exe *)

module Flow = Smt_core.Flow
module Compare = Smt_core.Compare
module Suite = Smt_circuits.Suite
module Text_table = Smt_util.Text_table

(* A small coin-cell class budget for the always-on standby domain. *)
let battery_mwh = 800.0 (* mWh, a 220 mAh cell at 3.6 V *)
let block_instances_on_chip = 400.0
(* the evaluation block is a slice; a real baseband carries hundreds *)

let () =
  let lib = Smt_cell.Library.default () in
  let row = Compare.table1_row (fun () -> Suite.circuit_a lib) in
  Printf.printf "standby-leakage -> battery-life for a baseband-class chip\n";
  Printf.printf "(block scaled x%.0f, %.0f mWh battery, standby only)\n\n"
    block_instances_on_chip battery_mwh;
  let rows =
    List.map
      (fun e ->
        let r = e.Compare.report in
        let chip_leak_mw = r.Flow.standby_nw *. block_instances_on_chip /. 1e6 in
        let hours = battery_mwh /. chip_leak_mw in
        [
          Flow.technique_name e.Compare.technique;
          Printf.sprintf "%.1f" r.Flow.standby_nw;
          Printf.sprintf "%.3f" chip_leak_mw;
          Printf.sprintf "%.0f" hours;
          Printf.sprintf "%.1f" (hours /. 24.0);
          Text_table.pct e.Compare.leakage_pct;
        ])
      row.Compare.entries
  in
  print_endline
    (Text_table.render
       ~header:
         [ "Technique"; "Block nW"; "Chip mW"; "Standby hours"; "Days"; "vs Dual-Vth" ]
       rows);
  let dual = List.nth row.Compare.entries 0 and imp = List.nth row.Compare.entries 2 in
  let ratio = dual.Compare.report.Flow.standby_nw /. imp.Compare.report.Flow.standby_nw in
  Printf.printf
    "\nthe improved Selective-MT domain idles %.1fx longer than the Dual-Vth design —\n\
     the difference between days and weeks of standby on the same battery.\n"
    ratio;
  (* And the cost side: the area price of that standby win. *)
  let con = List.nth row.Compare.entries 1 in
  Printf.printf
    "area price: conventional Selective-MT pays %+.1f%% area over Dual-Vth; the improved\n\
     style pays only %+.1f%% — the paper's area-efficiency claim.\n"
    (con.Compare.area_pct -. 100.0)
    (imp.Compare.area_pct -. 100.0)
