module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Cell = Smt_cell.Cell
module Vth = Smt_cell.Vth
module Tech = Smt_cell.Tech
module Library = Smt_cell.Library
module Geom = Smt_util.Geom
module Bounce = Smt_power.Bounce
module Em = Smt_power.Em
module Trace = Smt_obs.Trace
module Metrics = Smt_obs.Metrics
module Log = Smt_obs.Log

let m_builds = Metrics.counter "cluster.builds"
let m_formed = Metrics.counter "cluster.clusters_formed"
let m_cells = Metrics.counter "cluster.cells_clustered"

type params = {
  bounce_limit : float;
  length_limit : float;
  cell_limit : int;
  current_limit : float;
  sizing_margin : float;
  diversity : bool;
  length_factor : float;
}

let default_params (tech : Tech.t) =
  {
    bounce_limit = tech.Tech.bounce_limit;
    length_limit = tech.Tech.vgnd_length_limit;
    cell_limit = tech.Tech.em_cell_limit;
    current_limit = tech.Tech.em_current_limit;
    sizing_margin = 0.10;
    diversity = true;
    length_factor = 1.0;
  }

type cluster = {
  switch : Netlist.inst_id;
  members : Netlist.inst_id list;
  width : float;
  wire_length : float;
  sim_current_ua : float;
  sustained_ua : float;
  bounce : float;
}

type result = {
  clusters : cluster list;
  total_switch_width : float;
  total_switch_area : float;
}

let required_width tech p ~current_ua ~wire_length =
  if current_ua <= 0.0 then Some 0.1
  else begin
    let amps = current_ua *. 1e-6 in
    let r_wire = Bounce.vgnd_wire_res tech ~length:wire_length in
    let budget = (p.bounce_limit /. amps) -. r_wire in
    if budget <= 0.0 then None
    else Some (tech.Tech.switch_r_width /. budget *. (1.0 +. p.sizing_margin))
  end

let member_points place members =
  List.filter_map (fun iid -> Placement.inst_point_opt place iid) members

let cluster_length ?switch_at place p members =
  let pts = member_points place members in
  let pts = match switch_at with Some at -> at :: pts | None -> pts in
  Geom.spanning_length pts *. p.length_factor

let vgnd_length ?members place sw =
  let nl = Placement.netlist place in
  let members =
    match members with Some m -> m | None -> Netlist.switch_members nl sw
  in
  let pts = member_points place members in
  let pts = match Placement.inst_point_opt place sw with Some at -> at :: pts | None -> pts in
  Geom.spanning_length pts

let vgnd_lengths place =
  (* One [switch_groups] pass instead of a members scan per switch; the
     returned function falls back to the direct computation for switches
     created after the table was built. *)
  let nl = Placement.netlist place in
  let tbl = Hashtbl.create 97 in
  List.iter
    (fun (sw, members) -> Hashtbl.replace tbl sw (vgnd_length ~members place sw))
    (Netlist.switch_groups nl);
  fun sw ->
    match Hashtbl.find_opt tbl sw with Some l -> l | None -> vgnd_length place sw

(* Simultaneous current of a would-be cluster under the sizing policy. *)
let sim_current ?activity ?load_of p nl members =
  if p.diversity then Bounce.simultaneous_current ?activity ?load_of nl ~members
  else
    List.fold_left (fun acc iid -> acc +. (Netlist.cell nl iid).Cell.peak_current) 0.0 members

let feasible ?activity ?load_of place p members =
  let nl = Placement.netlist place in
  let tech = Library.tech (Netlist.lib nl) in
  let n = List.length members in
  if n > p.cell_limit then false
  else begin
    let sustained = Bounce.sustained_current ?activity ?load_of nl ~members in
    if not (Em.cluster_ok { tech with Tech.em_cell_limit = p.cell_limit;
                            Tech.em_current_limit = p.current_limit }
              ~cells:n ~sustained_ua:sustained)
    then false
    else begin
      let centroid = Placement.centroid place members in
      let length = cluster_length ~switch_at:centroid place p members in
      if length > p.length_limit then false
      else
        let current = sim_current ?activity ?load_of p nl members in
        required_width tech p ~current_ua:current ~wire_length:length <> None
    end
  end

(* Placement-order sweep key: row index then serpentine x. *)
let sweep_order place members =
  let nl = Placement.netlist place in
  let tech = Library.tech (Netlist.lib nl) in
  let row_h = tech.Tech.row_height in
  let key iid =
    match Placement.inst_point_opt place iid with
    | Some p ->
      let row = int_of_float (p.Geom.y /. row_h) in
      let x = if row mod 2 = 0 then p.Geom.x else -.p.Geom.x in
      (row, x)
    | None -> (max_int, 0.0)
  in
  List.sort (fun a b -> compare (key a) (key b)) members

let build ?activity ?load_of ?params place ~mte_net =
  Trace.with_span "Cluster.build" @@ fun () ->
  Metrics.incr m_builds;
  let nl = Placement.netlist place in
  let lib = Netlist.lib nl in
  let tech = Library.tech lib in
  let p = match params with Some p -> p | None -> default_params tech in
  (* Dissolve the existing switch structure. *)
  List.iter
    (fun (sw, members) ->
      List.iter (fun m -> Netlist.set_vgnd_switch nl m None) members;
      Netlist.remove_inst nl sw)
    (Netlist.switch_groups nl);
  let cells =
    Netlist.live_insts nl
    |> List.filter (fun iid -> (Netlist.cell nl iid).Cell.style = Vth.Mt_vgnd)
  in
  let ordered = sweep_order place cells in
  (* Greedy packing along the sweep. *)
  let groups = ref [] in
  let current = ref [] in
  let flush () =
    if !current <> [] then begin
      groups := List.rev !current :: !groups;
      current := []
    end
  in
  List.iter
    (fun iid ->
      let candidate = iid :: !current in
      if feasible ?activity ?load_of place p candidate then current := candidate
      else begin
        if !current = [] then
          invalid_arg
            (Printf.sprintf "Cluster.build: cell %s cannot satisfy constraints alone"
               (Netlist.inst_name nl iid));
        flush ();
        if feasible ?activity ?load_of place p [ iid ] then current := [ iid ]
        else
          invalid_arg
            (Printf.sprintf "Cluster.build: cell %s cannot satisfy constraints alone"
               (Netlist.inst_name nl iid))
      end)
    ordered;
  flush ();
  (* Materialize one sized switch per group. *)
  let clusters =
    List.map
      (fun members ->
        let centroid = Placement.centroid place members in
        let length = cluster_length ~switch_at:centroid place p members in
        let current = sim_current ?activity ?load_of p nl members in
        let sustained = Bounce.sustained_current ?activity ?load_of nl ~members in
        let width =
          match required_width tech p ~current_ua:current ~wire_length:length with
          | Some w -> w
          | None -> assert false (* feasible() checked *)
        in
        let sw_cell = Library.switch lib ~width in
        let name = Netlist.fresh_inst_name nl "sw" in
        let sw = Netlist.add_inst nl ~name sw_cell [ ("MTE", mte_net) ] in
        Placement.place_inst place sw centroid;
        List.iter (fun m -> Netlist.set_vgnd_switch nl m (Some sw)) members;
        let bounce =
          Bounce.bounce_v tech ~switch_width:sw_cell.Cell.switch_width ~wire_length:length
            ~current_ua:current
        in
        {
          switch = sw;
          members;
          width = sw_cell.Cell.switch_width;
          wire_length = length;
          sim_current_ua = current;
          sustained_ua = sustained;
          bounce;
        })
      (List.rev !groups)
  in
  let total_width = List.fold_left (fun acc c -> acc +. c.width) 0.0 clusters in
  let total_area =
    List.fold_left (fun acc c -> acc +. Tech.switch_area tech ~width:c.width) 0.0 clusters
  in
  Metrics.incr ~by:(List.length clusters) m_formed;
  Metrics.incr ~by:(List.length ordered) m_cells;
  if Log.enabled Log.Info then
    Log.info "cluster" "built switch clusters"
      ~fields:
        [
          ("design", Netlist.design_name nl);
          ("cells", string_of_int (List.length ordered));
          ("clusters", string_of_int (List.length clusters));
          ("total_width", Printf.sprintf "%.1f" total_width);
        ];
  { clusters; total_switch_width = total_width; total_switch_area = total_area }
