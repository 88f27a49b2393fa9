(* Prints, bit for bit, how the improved flow prices its switch structure on
   every suite circuit: each stage's worst bounce, WNS, area and standby
   leakage, each built cluster
   (switch name, member ids in order, width, VGND length, simultaneous and
   sustained current, bounce) and each final bounce report.  Floats print
   at %.17g, so a change in any fold's order or association shows here
   even when quantized switch widths and the rounded reports hide it.

   Usage: switch_pricing.exe > switch_pricing.out *)

module Netlist = Smt_netlist.Netlist
module Library = Smt_cell.Library
module Bounce = Smt_power.Bounce
module Cluster = Smt_core.Cluster
module Flow = Smt_core.Flow
module Suite = Smt_circuits.Suite

let () =
  let lib = Library.default () in
  List.iter
    (fun (name, make) ->
      let nl = make lib in
      let report, art = Flow.run_with_artifacts Flow.Improved_smt nl in
      Printf.printf "# %s\n" name;
      List.iter
        (fun s ->
          Printf.printf "stage %S bounce=%.17g wns=%.17g area=%.17g standby=%.17g\n"
            s.Flow.stage_name s.Flow.stage_worst_bounce s.Flow.stage_wns s.Flow.stage_area
            s.Flow.stage_standby_nw)
        report.Flow.stages;
      List.iter
        (fun (c : Cluster.cluster) ->
          Printf.printf
            "cluster %s members=%s width=%.17g wire=%.17g sim=%.17g sustained=%.17g bounce=%.17g\n"
            (Netlist.inst_name nl c.Cluster.switch)
            (String.concat "," (List.map string_of_int c.Cluster.members))
            c.Cluster.width c.Cluster.wire_length c.Cluster.sim_current_ua c.Cluster.sustained_ua
            c.Cluster.bounce)
        art.Flow.art_clusters;
      List.iter
        (fun (r : Bounce.cluster_report) ->
          Printf.printf "report %s members=%d current=%.17g wire=%.17g bounce=%.17g ok=%b\n"
            (Netlist.inst_name nl r.Bounce.switch)
            r.Bounce.members r.Bounce.current_ua r.Bounce.wire_length r.Bounce.bounce r.Bounce.ok)
        art.Flow.art_bounce)
    Suite.all
