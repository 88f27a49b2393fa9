module Netlist = Smt_netlist.Netlist
module Cell = Smt_cell.Cell
module Geom = Smt_util.Geom
module Vec = Smt_util.Vec
module Rng = Smt_util.Rng
module Library = Smt_cell.Library
module Trace = Smt_obs.Trace
module Metrics = Smt_obs.Metrics
module Log = Smt_obs.Log

let m_runs = Metrics.counter "place.runs"
let m_iterations = Metrics.counter "place.iterations"
let m_moves = Metrics.counter "place.moves"

type t = {
  nl : Netlist.t;
  die : Geom.bbox;
  rows : int;
  row_height : float;
  coords : (Netlist.inst_id, Geom.point) Hashtbl.t;
  ports : (string, Geom.point) Hashtbl.t;
}

let netlist t = t.nl
let die t = t.die
let row_count t = t.rows

let inst_point t iid =
  match Hashtbl.find_opt t.coords iid with
  | Some p -> p
  | None -> raise Not_found

let inst_point_opt t iid = Hashtbl.find_opt t.coords iid

let clamp_into die (p : Geom.point) =
  {
    Geom.x = Geom.clamp p.Geom.x ~lo:die.Geom.lx ~hi:die.Geom.hx;
    Geom.y = Geom.clamp p.Geom.y ~lo:die.Geom.ly ~hi:die.Geom.hy;
  }

let place_inst t iid p = Hashtbl.replace t.coords iid (clamp_into t.die p)

let port_point t name = Hashtbl.find_opt t.ports name

let pin_points t nid =
  let nl = t.nl in
  let of_inst iid = Hashtbl.find_opt t.coords iid in
  let driver = match Netlist.driver nl nid with
    | Some p -> (match of_inst p.Netlist.inst with Some pt -> [ pt ] | None -> [])
    | None -> []
  in
  let sinks =
    List.filter_map (fun (p : Netlist.pin) -> of_inst p.Netlist.inst) (Netlist.sinks nl nid)
  in
  let holder =
    match Netlist.holder_of nl nid with
    | Some h -> (match of_inst h with Some pt -> [ pt ] | None -> [])
    | None -> []
  in
  let pads =
    let name = Netlist.net_name nl nid in
    if Netlist.is_pi nl nid || Netlist.is_po nl nid then
      match Hashtbl.find_opt t.ports name with Some p -> [ p ] | None -> []
    else []
  in
  driver @ sinks @ holder @ pads

let net_hpwl t nid =
  match pin_points t nid with
  | [] | [ _ ] -> 0.0
  | pts -> Geom.hpwl (Geom.bbox_of_points pts)

let total_hpwl t =
  let acc = ref 0.0 in
  Netlist.iter_nets t.nl (fun nid -> acc := !acc +. net_hpwl t nid);
  !acc

let centroid t insts =
  match insts with
  | [] -> Geom.center t.die
  | _ ->
    let n = float_of_int (List.length insts) in
    let sx, sy =
      List.fold_left
        (fun (sx, sy) iid ->
          match Hashtbl.find_opt t.coords iid with
          | Some p -> (sx +. p.Geom.x, sy +. p.Geom.y)
          | None -> (sx, sy))
        (0.0, 0.0) insts
    in
    { Geom.x = sx /. n; Geom.y = sy /. n }

(* Longest-path logic level per instance; flip-flops level 0. *)
let levels nl =
  let level = Array.make (Netlist.inst_count nl) 0 in
  Array.iter
    (fun iid ->
      let deep =
        List.fold_left (fun acc pred -> max acc (level.(pred) + 1)) 0 (Netlist.fanin_insts nl iid)
      in
      level.(iid) <- deep)
    (Netlist.topo_order nl);
  level

(* The refinement's compiled form, built once per [place].  Cells are
   indexed by their position in the refinement order.  Cell [k]'s
   neighbours are [nbr.(start.(k))] .. [nbr.(start.(k + 1) - 1)]: slots
   into [xs]/[ys], an instance id or [inst_count + j] for the [j]th port
   pad, in exactly the order [pin_points] yields them over the cell's
   non-clock nets.  Pad slots never move. *)
type compiled = {
  cells : Netlist.inst_id array;
  width : float array;  (* per cell: its width in the row *)
  start : int array;
  nbr : int array;
  xs : float array;
  ys : float array;
  row_of : int array;  (* legalization scratch, per cell *)
  by_row : int array;  (* legalization scratch: cells in (row, x) order *)
}

(* Two counting passes over the same walk: the first sizes the CSR, the
   second fills it. *)
let compile t cells =
  let nl = t.nl in
  let ninst = Netlist.inst_count nl in
  let placed = Array.make ninst false in
  Array.iter (fun iid -> placed.(iid) <- true) cells;
  (* per net: the slot of its port pad, or -1 *)
  let pad_of = Array.make (Netlist.net_count nl) (-1) in
  let pads = Vec.create () in
  Netlist.iter_nets nl (fun nid ->
      if Netlist.is_pi nl nid || Netlist.is_po nl nid then
        Option.iter
          (fun p -> pad_of.(nid) <- ninst + Vec.push pads p)
          (Hashtbl.find_opt t.ports (Netlist.net_name nl nid)));
  let walk iid emit =
    List.iter
      (fun (_, nid) ->
        (* the clock net connects everything; skip it *)
        if not (Netlist.is_clock_net nl nid) then begin
          (match Netlist.driver nl nid with
          | Some p when placed.(p.Netlist.inst) -> emit p.Netlist.inst
          | Some _ | None -> ());
          List.iter
            (fun (p : Netlist.pin) -> if placed.(p.Netlist.inst) then emit p.Netlist.inst)
            (Netlist.sinks nl nid);
          (match Netlist.holder_of nl nid with
          | Some h when placed.(h) -> emit h
          | Some _ | None -> ());
          if pad_of.(nid) >= 0 then emit pad_of.(nid)
        end)
      (Netlist.conns nl iid)
  in
  let n = Array.length cells in
  let start = Array.make (n + 1) 0 in
  Array.iteri (fun k iid -> walk iid (fun _ -> start.(k + 1) <- start.(k + 1) + 1)) cells;
  for k = 1 to n do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let nbr = Array.make start.(n) 0 in
  Array.iteri
    (fun k iid ->
      let fill = ref start.(k) in
      walk iid (fun slot ->
          nbr.(!fill) <- slot;
          incr fill))
    cells;
  let xs = Array.make (ninst + Vec.length pads) 0.0 in
  let ys = Array.make (ninst + Vec.length pads) 0.0 in
  Vec.iteri
    (fun j (p : Geom.point) ->
      xs.(ninst + j) <- p.Geom.x;
      ys.(ninst + j) <- p.Geom.y)
    pads;
  {
    cells;
    width = Array.map (fun iid -> (Netlist.cell nl iid).Cell.area /. t.row_height) cells;
    start;
    nbr;
    xs;
    ys;
    row_of = Array.make n 0;
    by_row = Array.make n 0;
  }

(* Move every cell halfway toward the centroid of its neighbours, reading
   the positions already moved in this pass.  A neighbour at exactly the
   cell's own position drops out of the centroid, whether or not it is the
   cell itself.  The sums run in neighbour order from 0.0.  Returns the
   number of cells that moved. *)
let refine t c =
  let { cells; start; nbr; xs; ys; _ } = c in
  let die = t.die in
  let moved = ref 0 in
  for k = 0 to Array.length cells - 1 do
    let iid = cells.(k) in
    let px = xs.(iid) and py = ys.(iid) in
    let sx = ref 0.0 and sy = ref 0.0 and count = ref 0 in
    for j = start.(k) to start.(k + 1) - 1 do
      let slot = nbr.(j) in
      let qx = xs.(slot) and qy = ys.(slot) in
      if not (qx = px && qy = py) then begin
        sx := !sx +. qx;
        sy := !sy +. qy;
        incr count
      end
    done;
    if !count > 0 then begin
      let n = float_of_int !count in
      let bx = (px +. (!sx /. n)) /. 2.0 and by = (py +. (!sy /. n)) /. 2.0 in
      (* [clamp_into], written out so the floats stay unboxed *)
      let nx =
        if bx < die.Geom.lx then die.Geom.lx else if bx > die.Geom.hx then die.Geom.hx else bx
      in
      let ny =
        if by < die.Geom.ly then die.Geom.ly else if by > die.Geom.hy then die.Geom.hy else by
      in
      if not (nx = px && ny = py) then incr moved;
      xs.(iid) <- nx;
      ys.(iid) <- ny
    end
  done;
  !moved

let legalize t c =
  (* Bucket cells into rows, spill overfull rows into their neighbours (so
     no row exceeds the die width), then pack each row left-to-right. *)
  let { cells; width; xs; ys; row_of; by_row; _ } = c in
  let n = Array.length cells in
  for k = 0 to n - 1 do
    row_of.(k) <-
      int_of_float ((ys.(cells.(k)) -. t.die.Geom.ly) /. t.row_height)
      |> max 0 |> min (t.rows - 1);
    by_row.(k) <- n - 1 - k
  done;
  (* the sort is stable: cells tied on (row, x) stay in reverse refinement
     order *)
  Array.stable_sort
    (fun a b ->
      match compare row_of.(a) row_of.(b) with
      | 0 -> compare xs.(cells.(a)) xs.(cells.(b))
      | c -> c)
    by_row;
  (* Global repack: walk the cells in (row, x) order and refill the rows
     sequentially, never exceeding the row capacity.  Total cell width is at
     most utilization * rows * capacity, so the greedy fill always fits (the
     last row absorbs any remainder). *)
  let capacity = Geom.width t.die in
  let row = ref 0 and used = ref 0.0 and filled = ref 0 and x = ref t.die.Geom.lx in
  Array.iter
    (fun k ->
      let w = width.(k) in
      if !used +. w > capacity && !row < t.rows - 1 && !filled > 0 then begin
        incr row;
        used := 0.0;
        filled := 0;
        x := t.die.Geom.lx
      end;
      incr filled;
      used := !used +. w;
      let iid = cells.(k) in
      xs.(iid) <- !x +. (w /. 2.0);
      ys.(iid) <- t.die.Geom.ly +. ((float_of_int !row +. 0.5) *. t.row_height);
      x := !x +. w)
    by_row

let place ?(seed = 1) ?(utilization = 0.65) ?(iterations = 12) nl =
  Trace.with_span "Placement.place"
    ~args:[ ("design", Netlist.design_name nl); ("iterations", string_of_int iterations) ]
  @@ fun () ->
  Metrics.incr m_runs;
  let rng = Rng.create seed in
  let area = Netlist.total_area nl in
  let tech = Library.tech (Netlist.lib nl) in
  let row_height = tech.Smt_cell.Tech.row_height in
  let side = Float.max (4.0 *. row_height) (sqrt (area /. utilization)) in
  let rows = max 2 (int_of_float (side /. row_height)) in
  let die =
    { Geom.lx = 0.0; Geom.ly = 0.0; Geom.hx = side; Geom.hy = float_of_int rows *. row_height }
  in
  let t = { nl; die; rows; row_height; coords = Hashtbl.create 997; ports = Hashtbl.create 97 } in
  (* Ports on the west (inputs) and east (outputs) edges. *)
  let spread edge_x ports =
    let n = List.length ports in
    List.iteri
      (fun i (name, _) ->
        let y = die.Geom.ly +. ((float_of_int i +. 1.0) /. (float_of_int n +. 1.0) *. Geom.height die) in
        Hashtbl.replace t.ports name { Geom.x = edge_x; Geom.y })
      ports
  in
  spread die.Geom.lx (Netlist.inputs nl);
  spread die.Geom.hx (Netlist.outputs nl);
  (* Constructive placement: sweep by logic level, snake through rows. *)
  let level = levels nl in
  let insts = Netlist.live_insts nl in
  let keyed =
    List.map (fun iid -> (iid, (level.(iid), Rng.int rng 1000))) insts
    |> List.sort (fun (_, k1) (_, k2) -> compare k1 k2)
    |> List.map fst
  in
  let cells = Array.of_list keyed in
  let c = compile t cells in
  let per_row = max 1 ((Array.length cells + rows - 1) / rows) in
  Array.iteri
    (fun i iid ->
      let row = i / per_row in
      let pos = i mod per_row in
      let pos = if row mod 2 = 1 then per_row - 1 - pos else pos in
      c.xs.(iid) <-
        die.Geom.lx +. ((float_of_int pos +. 0.5) /. float_of_int per_row *. Geom.width die);
      c.ys.(iid) <- die.Geom.ly +. ((float_of_int (row mod rows) +. 0.5) *. row_height))
    cells;
  (* Force-directed refinement: move every cell toward the centroid of its
     neighbours (connected instances and port pads), then legalize rows. *)
  let moved = ref 0 in
  for _pass = 1 to iterations do
    Metrics.incr m_iterations;
    moved := !moved + refine t c;
    legalize t c
  done;
  Array.iter
    (fun iid -> Hashtbl.replace t.coords iid { Geom.x = c.xs.(iid); Geom.y = c.ys.(iid) })
    cells;
  Metrics.incr ~by:!moved m_moves;
  if Log.enabled Log.Debug then
    Log.debug "place" "placed"
      ~fields:
        [
          ("design", Netlist.design_name nl);
          ("cells", string_of_int (Array.length cells));
          ("iterations", string_of_int iterations);
          ("moves", string_of_int !moved);
          ("hpwl", Printf.sprintf "%.1f" (total_hpwl t));
        ];
  t
