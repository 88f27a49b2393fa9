module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Cell = Smt_cell.Cell
module Library = Smt_cell.Library
module Bounce = Smt_power.Bounce
module Trace = Smt_obs.Trace
module Metrics = Smt_obs.Metrics
module Log = Smt_obs.Log

let m_runs = Metrics.counter "reopt.runs"
let m_resized = Metrics.counter "reopt.switches_resized"
let m_repaired = Metrics.counter "reopt.violations_repaired"

type adjustment = {
  switch : Netlist.inst_id;
  old_width : float;
  new_width : float;
  routed_length : float;
  bounce_before : float;
  bounce_after : float;
}

type result = {
  adjustments : adjustment list;
  resized : int;
  violations_before : int;
  violations_after : int;
}

let reoptimize ?activity ?load_of ?lengths ?params ?(detour = 1.15) place =
  Trace.with_span "Reopt.reoptimize" @@ fun () ->
  Metrics.incr m_runs;
  let nl = Placement.netlist place in
  let lib = Netlist.lib nl in
  let tech = Library.tech lib in
  let p = match params with Some p -> p | None -> Cluster.default_params tech in
  let table = Bounce.currents ?activity ?load_of nl in
  let length_of sw members =
    match lengths with Some l -> l sw | None -> Cluster.vgnd_length ~members place sw
  in
  (* Price every cluster before resizing any, so the table is read in full
     before the first edit. *)
  let priced =
    List.map
      (fun (sw, members) ->
        let current = Bounce.sizing_current table ~diversity:p.Cluster.diversity members in
        (sw, length_of sw members *. detour, current))
      (Netlist.switch_groups nl)
  in
  let adjustments =
    List.map
      (fun (sw, routed_length, current) ->
        let old_width = (Netlist.cell nl sw).Cell.switch_width in
        let bounce_before =
          Bounce.bounce_v tech ~switch_width:old_width ~wire_length:routed_length
            ~current_ua:current
        in
        let new_width =
          match Cluster.required_width tech p ~current_ua:current ~wire_length:routed_length with
          | Some w -> w
          | None -> old_width (* wire alone blows the budget; keep and report *)
        in
        let quantized = (Library.switch lib ~width:new_width).Cell.switch_width in
        if Float.abs (quantized -. old_width) > 0.0 then
          Netlist.replace_cell nl sw (Library.switch lib ~width:new_width);
        let final_width = (Netlist.cell nl sw).Cell.switch_width in
        let bounce_after =
          Bounce.bounce_v tech ~switch_width:final_width ~wire_length:routed_length
            ~current_ua:current
        in
        {
          switch = sw;
          old_width;
          new_width = final_width;
          routed_length;
          bounce_before;
          bounce_after;
        })
      priced
  in
  let count f = List.length (List.filter f adjustments) in
  let r =
    {
      adjustments;
      resized = count (fun a -> Float.abs (a.new_width -. a.old_width) > 1e-9);
      violations_before = count (fun a -> a.bounce_before > p.Cluster.bounce_limit +. 1e-12);
      violations_after = count (fun a -> a.bounce_after > p.Cluster.bounce_limit +. 1e-12);
    }
  in
  Metrics.incr ~by:r.resized m_resized;
  Metrics.incr ~by:(max 0 (r.violations_before - r.violations_after)) m_repaired;
  if Log.enabled Log.Info then
    Log.info "reopt" "post-route switch re-optimization"
      ~fields:
        [
          ("design", Netlist.design_name nl);
          ("switches", string_of_int (List.length adjustments));
          ("resized", string_of_int r.resized);
          ("violations_before", string_of_int r.violations_before);
          ("violations_after", string_of_int r.violations_after);
        ];
  r
