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
  diversity : bool;
}

let default_params (tech : Tech.t) =
  {
    bounce_limit = tech.Tech.bounce_limit;
    length_limit = tech.Tech.vgnd_length_limit;
    cell_limit = tech.Tech.em_cell_limit;
    diversity = true;
  }

let validate p =
  if not (Float.is_finite p.bounce_limit && p.bounce_limit > 0.0) then
    Error (Printf.sprintf "bounce limit must be finite and > 0 V (got %g)" p.bounce_limit)
  else if not (Float.is_finite p.length_limit && p.length_limit >= 0.0) then
    Error (Printf.sprintf "VGND length cap must be finite and >= 0 um (got %g)"
             p.length_limit)
  else if p.cell_limit < 1 then
    Error (Printf.sprintf "cells per switch must be >= 1 (got %d)" p.cell_limit)
  else Ok p

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

(* Footers are sized 10% over the bounce budget's width. *)
let sizing_margin = 0.10

let required_width tech p ~current_ua ~wire_length =
  if current_ua <= 0.0 then Some 0.1
  else begin
    let amps = current_ua *. 1e-6 in
    let r_wire = Bounce.vgnd_wire_res tech ~length:wire_length in
    let budget = (p.bounce_limit /. amps) -. r_wire in
    if budget <= 0.0 then None
    else Some (tech.Tech.switch_r_width /. budget *. (1.0 +. sizing_margin))
  end

let member_points place members =
  List.filter_map (fun iid -> Placement.inst_point_opt place iid) members

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

(* A cluster's switch sits at its members' centroid, which divides by the
   member count whether or not each member is placed, and its VGND line
   spans [centroid :: placed members] in list order: the arithmetic of
   [Placement.centroid] and [Geom.spanning_length], over the points
   [point] holds per instance. *)
let centroid point members =
  let n = float_of_int (List.length members) in
  let sx = ref 0.0 and sy = ref 0.0 in
  List.iter
    (fun iid ->
      match point.(iid) with
      | Some p ->
        sx := !sx +. p.Geom.x;
        sy := !sy +. p.Geom.y
      | None -> ())
    members;
  { Geom.x = !sx /. n; Geom.y = !sy /. n }

let line_length point centroid members =
  Geom.spanning_length (centroid :: List.filter_map (fun iid -> point.(iid)) members)

(* Placement-order sweep key: row index then serpentine x, read once per
   cell; the sort is stable, so cells of equal key keep their order. *)
let sweep_order tech point cells =
  let row_h = tech.Tech.row_height in
  let key iid =
    match point.(iid) with
    | Some p ->
      let row = int_of_float (p.Geom.y /. row_h) in
      let x = if row mod 2 = 0 then p.Geom.x else -.p.Geom.x in
      (row, x)
    | None -> (max_int, 0.0)
  in
  let keyed = Array.of_list (List.map (fun iid -> (key iid, iid)) cells) in
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) keyed;
  Array.to_list (Array.map snd keyed)

let build ?activity ?load_of ?params place ~mte_net =
  Trace.with_span "Cluster.build" @@ fun () ->
  Metrics.incr m_builds;
  let nl = Placement.netlist place in
  let lib = Netlist.lib nl in
  let tech = Library.tech lib in
  let p = match params with Some p -> p | None -> default_params tech in
  (match validate p with Ok _ -> () | Error e -> invalid_arg ("Cluster.build: " ^ e));
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
  (* The table is made once the old structure is gone, and the feasibility
     checks read every cell's row before the first switch goes in. *)
  let table = Bounce.currents ?activity ?load_of nl in
  let point = Array.make (Netlist.inst_count nl) None in
  List.iter (fun iid -> point.(iid) <- Placement.inst_point_opt place iid) cells;
  let ordered = sweep_order tech point cells in
  let em_tech = { tech with Tech.em_cell_limit = p.cell_limit } in
  let current_of members = Bounce.sizing_current table ~diversity:p.diversity members in
  let feasible members =
    let n = List.length members in
    if n > p.cell_limit then false
    else if
      not (Em.cluster_ok em_tech ~cells:n ~sustained_ua:(Bounce.sustained table members))
    then false
    else begin
      let centroid = centroid point members in
      let length = line_length point centroid members in
      if length > p.length_limit then false
      else
        required_width tech p ~current_ua:(current_of members) ~wire_length:length <> None
    end
  in
  (* A group's switch is priced oldest member first: its centroid, VGND
     length and current, and a width when one meets the bounce limit. *)
  let price members =
    let centroid = centroid point members in
    let length = line_length point centroid members in
    let current = current_of members in
    Option.map
      (fun width -> (members, centroid, length, current, width))
      (required_width tech p ~current_ua:current ~wire_length:length)
  in
  (* Greedy packing along the sweep; a candidate is priced newest member
     first.  Among members of equal peak current the other order can name
     another worst member, so the switch's price can find no width where
     the check found one: closing such a group hands its newest member
     back to the pending cells until the rest prices. *)
  let groups = ref [] in
  let current = ref [] in
  let rec close pending =
    match !current with
    | [] -> pending
    | newest :: older -> (
      match price (List.rev !current) with
      | Some group ->
        groups := group :: !groups;
        current := [];
        pending
      | None ->
        current := older;
        close (newest :: pending))
  in
  let rec pack = function
    | [] -> ( match close [] with [] -> () | back -> pack back)
    | iid :: rest as pending ->
      let candidate = iid :: !current in
      if feasible candidate then begin
        current := candidate;
        pack rest
      end
      else if !current = [] then
        invalid_arg
          (Printf.sprintf "Cluster.build: cell %s cannot satisfy constraints alone"
             (Netlist.inst_name nl iid))
      else pack (close pending)
  in
  pack ordered;
  (* Materialize one sized switch per group. *)
  let clusters =
    List.map
      (fun (members, centroid, length, current, width) ->
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
          sustained_ua = Bounce.sustained table members;
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
