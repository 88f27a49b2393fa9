module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Cell = Smt_cell.Cell
module Tech = Smt_cell.Tech
module Library = Smt_cell.Library
module Geom = Smt_util.Geom

type result = {
  buffers : int;
  area : float;
  levels : int;
  root_fanout : int;
}

type sink = { pin : Netlist.pin; at : Geom.point }

let point_of place (pin : Netlist.pin) =
  match Placement.inst_point_opt place pin.Netlist.inst with
  | Some p -> p
  | None -> Geom.center (Placement.die place)

(* Geometric groups of at most [cap] sinks: the bisection's leaves, left
   to right. *)
let group cap sinks =
  let rec leaves = function
    | Geom.Leaf group -> [ group ]
    | Geom.Split (l, r) -> leaves l @ leaves r
  in
  leaves (Geom.bisect ~cap (fun s -> s.at) sinks)

let buffer_tree ?max_fanout place ~mte_net =
  let nl = Placement.netlist place in
  let lib = Netlist.lib nl in
  let tech = Library.tech lib in
  let cap = match max_fanout with Some c -> c | None -> tech.Tech.mte_max_fanout in
  let buf_cell = Library.mte_buffer lib in
  let buffers = ref 0 and area = ref 0.0 and levels = ref 0 in
  let current =
    ref (List.map (fun pin -> { pin; at = point_of place pin }) (Netlist.sinks nl mte_net))
  in
  (* Bottom-up: while too many loads, replace each geometric group by one
     buffer whose input becomes a load of the next level. *)
  while List.length !current > cap do
    incr levels;
    let groups = group cap !current in
    current :=
      List.map
        (fun members ->
          let centroid =
            Geom.center (Geom.bbox_of_points (List.map (fun s -> s.at) members))
          in
          let out_net = Netlist.fresh_net nl "mte" in
          let in_stub = Netlist.fresh_net nl "mte" in
          let name = Netlist.fresh_inst_name nl "mtebuf" in
          let buf = Netlist.add_inst nl ~name buf_cell [ ("A", in_stub); ("Z", out_net) ] in
          Placement.place_inst place buf centroid;
          incr buffers;
          area := !area +. buf_cell.Cell.area;
          List.iter
            (fun s ->
              let from_net =
                match Netlist.pin_net nl s.pin.Netlist.inst s.pin.Netlist.pin_name with
                | Some nid -> nid
                | None -> mte_net
              in
              Netlist.move_sink nl ~from_net s.pin ~to_net:out_net)
            members;
          let pin = { Netlist.inst = buf; Netlist.pin_name = "A" } in
          { pin; at = centroid })
        groups
  done;
  (* Hook the surviving loads onto the MTE port net. *)
  List.iter
    (fun s ->
      let from_net =
        match Netlist.pin_net nl s.pin.Netlist.inst s.pin.Netlist.pin_name with
        | Some nid -> nid
        | None -> mte_net
      in
      if from_net <> mte_net then Netlist.move_sink nl ~from_net s.pin ~to_net:mte_net)
    !current;
  { buffers = !buffers; area = !area; levels = !levels; root_fanout = List.length !current }

let max_stage_fanout nl mte_net =
  let seen = Hashtbl.create 97 in
  let rec walk nid acc =
    if Hashtbl.mem seen nid then acc
    else begin
      Hashtbl.add seen nid ();
      let sinks = Netlist.sinks nl nid in
      let acc = max acc (List.length sinks) in
      List.fold_left
        (fun acc (p : Netlist.pin) ->
          let name = Netlist.inst_name nl p.Netlist.inst in
          let is_buf = String.length name >= 6 && String.sub name 0 6 = "mtebuf" in
          if is_buf then
            match Netlist.output_net nl p.Netlist.inst with
            | Some out -> walk out acc
            | None -> acc
          else acc)
        acc sinks
    end
  in
  walk mte_net 0
