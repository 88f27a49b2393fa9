module Netlist = Smt_netlist.Netlist
module Sta = Smt_sta.Sta
module Corner = Smt_cell.Corner
module Tech = Smt_cell.Tech
module Leakage = Smt_power.Leakage
module Library = Smt_cell.Library
module Text_table = Smt_util.Text_table

type entry = {
  corner : Corner.t;
  wns_ps : float;
  timing_met : bool;
  standby_nw : float;
}

type summary = {
  entries : entry list;
  all_met : bool;
  worst_timing : entry;
  worst_leakage : entry;
}

let default_corners tech =
  [
    Corner.make ~process:Corner.Slow ~temperature_c:125.0 tech;
    Corner.make ~process:Corner.Slow ~temperature_c:(-40.0) tech;
    Corner.typical tech;
    Corner.make ~process:Corner.Fast ~temperature_c:125.0 tech;
  ]

let run ?corners ~clock_period sta =
  let nl = Sta.netlist sta in
  let tech = Library.tech (Netlist.lib nl) in
  let corners = match corners with Some l -> l | None -> default_corners tech in
  if corners = [] then invalid_arg "Signoff.run: no corners";
  let wns = Sta.wns sta in
  let base_leak = (Leakage.standby nl).Leakage.total in
  let entries =
    List.map
      (fun corner ->
        (* first-order derate: the whole launch-to-capture path (setup
           included) scales with the corner's delay factor *)
        let k = Corner.delay_factor tech corner in
        let wns_c = clock_period -. (k *. (clock_period -. wns)) in
        {
          corner;
          wns_ps = wns_c;
          timing_met = wns_c >= 0.0;
          standby_nw = base_leak *. Corner.leakage_factor tech corner;
        })
      corners
  in
  let worst_by f =
    match entries with
    | e :: rest -> List.fold_left (fun best x -> if f x < f best then x else best) e rest
    | [] -> assert false
  in
  {
    entries;
    all_met = List.for_all (fun e -> e.timing_met) entries;
    worst_timing = worst_by (fun e -> e.wns_ps);
    worst_leakage = worst_by (fun e -> -.e.standby_nw);
  }

let render s =
  let rows =
    List.map
      (fun e ->
        [
          Format.asprintf "%a" Corner.pp e.corner;
          Printf.sprintf "%.1f" e.wns_ps;
          (if e.timing_met then "met" else "VIOLATED");
          Printf.sprintf "%.1f" e.standby_nw;
        ])
      s.entries
  in
  Printf.sprintf "%s\nworst timing at %s, worst leakage at %s%s"
    (Text_table.render ~header:[ "Corner"; "WNS ps"; "Timing"; "Standby nW" ] rows)
    (Format.asprintf "%a" Corner.pp s.worst_timing.corner)
    (Format.asprintf "%a" Corner.pp s.worst_leakage.corner)
    (if s.all_met then "" else " — NOT CLEAN")
