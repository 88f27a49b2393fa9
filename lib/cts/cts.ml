module Netlist = Smt_netlist.Netlist
module Placement = Smt_place.Placement
module Cell = Smt_cell.Cell
module Func = Smt_cell.Func
module Tech = Smt_cell.Tech
module Library = Smt_cell.Library
module Geom = Smt_util.Geom

type t = {
  buffers : Netlist.inst_id list;
  levels : int;
  lat : (Netlist.inst_id, float) Hashtbl.t;
  buffer_area : float;
}

let empty = { buffers = []; levels = 0; lat = Hashtbl.create 7; buffer_area = 0.0 }

let buffer_count t = List.length t.buffers
let levels t = t.levels
let buffer_area t = t.buffer_area
let latency t iid = match Hashtbl.find_opt t.lat iid with Some l -> l | None -> 0.0
let latency_fn t = latency t

let fold_latencies f init t = Hashtbl.fold (fun _ l acc -> f acc l) t.lat init

let max_latency t = fold_latencies Float.max 0.0 t
let min_latency t =
  if Hashtbl.length t.lat = 0 then 0.0 else fold_latencies Float.min infinity t

let skew t = if Hashtbl.length t.lat = 0 then 0.0 else max_latency t -. min_latency t

(* A sink is a flip-flop CK pin at a point. *)
type sink = { ff : Netlist.inst_id; at : Geom.point }

let rc_ps r c = r *. c *. 1e-3

let synthesize ?(max_fanout = 8) place =
  let nl = Placement.netlist place in
  match Netlist.clock_net nl with
  | None -> empty
  | Some clock_root ->
    let ffs =
      Netlist.live_insts nl
      |> List.filter (fun iid -> (Netlist.cell nl iid).Cell.kind = Func.Dff)
    in
    if ffs = [] then empty
    else begin
      let lib = Netlist.lib nl in
      let tech = Library.tech lib in
      let buf_cell = Library.clock_buffer lib in
      let sinks =
        List.filter_map
          (fun ff ->
            match Placement.inst_point_opt place ff with
            | Some at -> Some { ff; at }
            | None -> None)
          ffs
      in
      let tree = Geom.bisect ~cap:max_fanout (fun s -> s.at) sinks in
      let buffers = ref [] in
      let lat = Hashtbl.create (List.length ffs) in
      let area = ref 0.0 in
      (* Build bottom-up: each node returns (input net to be driven by the
         parent, buffer location, relative latency per FF measured from the
         node's input pin). *)
      let wire_delay dist sink_cap =
        let r = dist *. tech.Tech.wire_r_per_um
        and c = dist *. tech.Tech.wire_c_per_um in
        rc_ps r ((0.5 *. c) +. sink_cap)
      in
      let rec build node : Netlist.net_id * Geom.point * (Netlist.inst_id * float) list =
        match node with
        | Geom.Leaf group ->
          let pts = List.map (fun s -> s.at) group in
          let here = Geom.center (Geom.bbox_of_points pts) in
          let in_net = Netlist.fresh_net nl "clk" in
          let out_net = Netlist.fresh_net nl "clk" in
          Netlist.mark_clock nl in_net;
          Netlist.mark_clock nl out_net;
          let name = Netlist.fresh_inst_name nl "ctsbuf" in
          let buf = Netlist.add_inst nl ~name buf_cell [ ("A", in_net); ("Z", out_net) ] in
          Placement.place_inst place buf here;
          buffers := buf :: !buffers;
          area := !area +. buf_cell.Cell.area;
          (* Re-home each CK pin onto the leaf net. *)
          let load = ref 0.0 in
          List.iter
            (fun s ->
              Netlist.connect nl s.ff "CK" out_net;
              load := !load +. (Netlist.cell nl s.ff).Cell.input_cap;
              let dist = Geom.manhattan here s.at in
              load := !load +. (dist *. tech.Tech.wire_c_per_um))
            group;
          let d_buf = Cell.delay buf_cell ~load_ff:!load in
          let rel =
            List.map
              (fun s ->
                let dist = Geom.manhattan here s.at in
                (s.ff, d_buf +. wire_delay dist (Netlist.cell nl s.ff).Cell.input_cap))
              group
          in
          (in_net, here, rel)
        | Geom.Split (l, r) ->
          let built = List.map build [ l; r ] in
          let pts = List.map (fun (_, p, _) -> p) built in
          let here = Geom.center (Geom.bbox_of_points pts) in
          let in_net = Netlist.fresh_net nl "clk" in
          let out_net = Netlist.fresh_net nl "clk" in
          Netlist.mark_clock nl in_net;
          Netlist.mark_clock nl out_net;
          let name = Netlist.fresh_inst_name nl "ctsbuf" in
          let buf = Netlist.add_inst nl ~name buf_cell [ ("A", in_net); ("Z", out_net) ] in
          Placement.place_inst place buf here;
          buffers := buf :: !buffers;
          area := !area +. buf_cell.Cell.area;
          let load = ref 0.0 in
          List.iter
            (fun (child_in, child_at, _) ->
              (* child subtree hangs from this buffer's output *)
              (match Netlist.sinks nl child_in with
              | [ pin ] -> Netlist.move_sink nl ~from_net:child_in pin ~to_net:out_net
              | _ -> ());
              load := !load +. buf_cell.Cell.input_cap;
              load := !load +. (Geom.manhattan here child_at *. tech.Tech.wire_c_per_um))
            built;
          let d_buf = Cell.delay buf_cell ~load_ff:!load in
          let rel =
            List.concat_map
              (fun (_, child_at, child_rel) ->
                let hop = d_buf +. wire_delay (Geom.manhattan here child_at) buf_cell.Cell.input_cap in
                List.map (fun (ff, l) -> (ff, l +. hop)) child_rel)
              built
          in
          (in_net, here, rel)
      in
      let root_in, _root_at, rel = build tree in
      (* Hang the root buffer from the clock port net. *)
      (match Netlist.sinks nl root_in with
      | [ pin ] -> Netlist.move_sink nl ~from_net:root_in pin ~to_net:clock_root
      | _ -> ());
      List.iter (fun (ff, l) -> Hashtbl.replace lat ff l) rel;
      let rec depth = function
        | Geom.Leaf _ -> 1
        | Geom.Split (l, r) -> 1 + max (depth l) (depth r)
      in
      { buffers = !buffers; levels = depth tree; lat; buffer_area = !area }
    end
