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

(* The point table, by instance id: instance [i] sits at ([px.(i)],
   [py.(i)]) when byte [i] of [placed] is set.  The three share one
   length, which [place_inst] grows for instances added after [place];
   the slots past the netlist's instances that [place] hands over (its
   port pads) are never set. *)
type t = {
  nl : Netlist.t;
  die : Geom.bbox;
  rows : int;
  row_height : float;
  mutable px : float array;
  mutable py : float array;
  mutable placed : Bytes.t;
  ports : (string, Geom.point) Hashtbl.t;
}

let netlist t = t.nl
let die t = t.die
let row_count t = t.rows

let is_placed t iid = iid >= 0 && iid < Bytes.length t.placed && Bytes.get t.placed iid <> '\000'
let point t iid = { Geom.x = t.px.(iid); Geom.y = t.py.(iid) }
let inst_point t iid = if is_placed t iid then point t iid else raise Not_found
let inst_point_opt t iid = if is_placed t iid then Some (point t iid) else None

let clamp_into die (p : Geom.point) =
  {
    Geom.x = Geom.clamp p.Geom.x ~lo:die.Geom.lx ~hi:die.Geom.hx;
    Geom.y = Geom.clamp p.Geom.y ~lo:die.Geom.ly ~hi:die.Geom.hy;
  }

let place_inst t iid p =
  let n = Bytes.length t.placed in
  if iid >= n then begin
    let size = max (iid + 1) (2 * n) in
    let grow a =
      let b = Array.make size 0.0 in
      Array.blit a 0 b 0 n;
      b
    in
    let placed = Bytes.make size '\000' in
    Bytes.blit t.placed 0 placed 0 n;
    t.px <- grow t.px;
    t.py <- grow t.py;
    t.placed <- placed
  end;
  let p = clamp_into t.die p in
  t.px.(iid) <- p.Geom.x;
  t.py.(iid) <- p.Geom.y;
  Bytes.set t.placed iid '\001'

let port_point t name = Hashtbl.find_opt t.ports name

let pin_points t nid =
  let nl = t.nl in
  let pads =
    if Netlist.is_pi nl nid || Netlist.is_po nl nid then
      match Hashtbl.find_opt t.ports (Netlist.net_name nl nid) with Some p -> [ p ] | None -> []
    else []
  in
  let rest =
    match Netlist.holder_of nl nid with
    | Some h when is_placed t h -> point t h :: pads
    | Some _ | None -> pads
  in
  let[@tail_mod_cons] rec sinks = function
    | [] -> rest
    | (p : Netlist.pin) :: more ->
      if is_placed t p.Netlist.inst then point t p.Netlist.inst :: sinks more else sinks more
  in
  let rest = sinks (Netlist.sinks nl nid) in
  match Netlist.driver nl nid with
  | Some p when is_placed t p.Netlist.inst -> point t p.Netlist.inst :: rest
  | Some _ | None -> rest

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
    (* an instance never placed adds nothing but still counts *)
    let n = float_of_int (List.length insts) in
    let rec sum sx sy = function
      | [] -> { Geom.x = sx /. n; Geom.y = sy /. n }
      | iid :: rest ->
        if is_placed t iid then sum (sx +. t.px.(iid)) (sy +. t.py.(iid)) rest else sum sx sy rest
    in
    sum 0.0 0.0 insts

(* Longest-path logic level per instance; every instance outside the
   combinational frame (flip-flops, switches, holders) is level 0. *)
let levels nl =
  let level = Array.make (Netlist.inst_count nl) 0 in
  let deeper acc d =
    let l = level.(d) + 1 in
    if l > acc then l else acc
  in
  Array.iter
    (fun iid -> level.(iid) <- Netlist.fold_fanin_drivers nl iid deeper 0)
    (Netlist.topo_order nl);
  level

(* The refinement's compiled form, built once per [place].  Cells are
   indexed by their position in the refinement order.  Cell [k]'s
   neighbours are [nbr.(start.(k))] .. [nbr.(start.(k + 1) - 1)]: slots
   into [xs]/[ys], an instance id or [inst_count + j] for the [j]th port
   pad, in exactly the order [pin_points] yields them over the cell's
   non-clock nets.  Pad slots never move; [placed] marks the cells' slots,
   and [place] hands it, [xs] and [ys] over as the point table. *)
type compiled = {
  cells : Netlist.inst_id array;
  width : float array;  (* per cell: its width in the row *)
  start : int array;
  nbr : int array;
  xs : float array;
  ys : float array;
  placed : Bytes.t;
  (* legalization work arrays: per cell, its row and the cells in (row,
     x) order; per row, where its cells begin *)
  row_of : int array;
  by_row : int array;
  row_start : int array;
}

(* Each net's slots are laid out once, in [pin_points] order (driver,
   sinks, holder, pad; none for a clock net, which connects everything),
   and a cell's row is its nets' slots, net after net, in connection
   order. *)
let compile t cells =
  let nl = t.nl in
  let ninst = Netlist.inst_count nl and nnets = Netlist.net_count nl in
  (* per net: the slot of its port pad, or -1 *)
  let pad_of = Array.make nnets (-1) in
  let pads = Vec.create () in
  Netlist.iter_nets nl (fun nid ->
      if Netlist.is_pi nl nid || Netlist.is_po nl nid then
        Option.iter
          (fun p -> pad_of.(nid) <- ninst + Vec.push pads p)
          (Hashtbl.find_opt t.ports (Netlist.net_name nl nid)));
  let nslots = ninst + Vec.length pads in
  let placed = Bytes.make nslots '\000' in
  Array.iter (fun iid -> Bytes.set placed iid '\001') cells;
  let on iid = Bytes.get placed iid <> '\000' in
  let net_slots nid emit =
    if not (Netlist.is_clock_net nl nid) then begin
      (match Netlist.driver nl nid with
      | Some p when on p.Netlist.inst -> emit p.Netlist.inst
      | Some _ | None -> ());
      List.iter
        (fun (p : Netlist.pin) -> if on p.Netlist.inst then emit p.Netlist.inst)
        (Netlist.sinks nl nid);
      (match Netlist.holder_of nl nid with Some h when on h -> emit h | Some _ | None -> ());
      if pad_of.(nid) >= 0 then emit pad_of.(nid)
    end
  in
  (* net [nid]'s slots are [slot.(net_start.(nid))] .. [slot.(net_start.(nid + 1) - 1)] *)
  let net_start = Array.make (nnets + 1) 0 in
  for nid = 0 to nnets - 1 do
    let size = ref 0 in
    net_slots nid (fun _ -> incr size);
    net_start.(nid + 1) <- net_start.(nid) + !size
  done;
  let slot = Array.make net_start.(nnets) 0 in
  for nid = 0 to nnets - 1 do
    let fill = ref net_start.(nid) in
    net_slots nid (fun s ->
        slot.(!fill) <- s;
        incr fill)
  done;
  let n = Array.length cells in
  let start = Array.make (n + 1) 0 in
  Array.iteri
    (fun k iid ->
      start.(k + 1) <-
        List.fold_left
          (fun acc (_, nid) -> acc + net_start.(nid + 1) - net_start.(nid))
          start.(k) (Netlist.conns nl iid))
    cells;
  let nbr = Array.make start.(n) 0 in
  Array.iteri
    (fun k iid ->
      ignore
        (List.fold_left
           (fun fill (_, nid) ->
             let len = net_start.(nid + 1) - net_start.(nid) in
             Array.blit slot net_start.(nid) nbr fill len;
             fill + len)
           start.(k) (Netlist.conns nl iid)))
    cells;
  let xs = Array.make nslots 0.0 and ys = Array.make nslots 0.0 in
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
    placed;
    row_of = Array.make n 0;
    by_row = Array.make n 0;
    row_start = Array.make (t.rows + 2) 0;
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

(* Bucket cells into rows, spill overfull rows into the rows above, then
   pack each row left-to-right.  The top row takes whatever the rows below
   cannot, so above full utilization it runs past the die's east edge. *)
let legalize t c =
  let { cells; width; xs; ys; row_of; by_row; row_start; _ } = c in
  let n = Array.length cells and rows = t.rows in
  let lx = t.die.Geom.lx and ly = t.die.Geom.ly in
  (* A counting sort into rows: [row_start.(r + 2)] counts row [r], the
     prefix sums turn [row_start.(r + 1)] into where row [r] begins, and
     filling advances it to where the row ends, so row [r] is [by_row.(
     row_start.(r))] .. [by_row.(row_start.(r + 1) - 1)].  The cells go in
     in reverse refinement order. *)
  Array.fill row_start 0 (rows + 2) 0;
  for k = 0 to n - 1 do
    let r = int_of_float ((ys.(cells.(k)) -. ly) /. t.row_height) in
    let r = if r < 0 then 0 else if r > rows - 1 then rows - 1 else r in
    row_of.(k) <- r;
    row_start.(r + 2) <- row_start.(r + 2) + 1
  done;
  for r = 2 to rows + 1 do
    row_start.(r) <- row_start.(r) + row_start.(r - 1)
  done;
  for k = n - 1 downto 0 do
    let at = row_start.(row_of.(k) + 1) in
    by_row.(at) <- k;
    row_start.(row_of.(k) + 1) <- at + 1
  done;
  (* each row by x; cells tied on x stay in reverse refinement order *)
  let by_x a b = Float.compare xs.(cells.(a)) xs.(cells.(b)) in
  for r = 0 to rows - 1 do
    let lo = row_start.(r) in
    let row = Array.sub by_row lo (row_start.(r + 1) - lo) in
    Array.stable_sort by_x row;
    Array.blit row 0 by_row lo (Array.length row)
  done;
  (* Global repack: walk the cells in (row, x) order and refill the rows
     sequentially, never exceeding the row capacity below the top row; the
     top row takes any excess, and its cells can then sit past [hx]. *)
  let capacity = Geom.width t.die in
  let row = ref 0 and used = ref 0.0 and filled = ref 0 and x = ref lx in
  for i = 0 to n - 1 do
    let k = by_row.(i) in
    let w = width.(k) in
    if !used +. w > capacity && !row < rows - 1 && !filled > 0 then begin
      incr row;
      used := 0.0;
      filled := 0;
      x := lx
    end;
    incr filled;
    used := !used +. w;
    let iid = cells.(k) in
    xs.(iid) <- !x +. (w /. 2.0);
    ys.(iid) <- ly +. ((float_of_int !row +. 0.5) *. t.row_height);
    x := !x +. w
  done

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
  let t =
    {
      nl;
      die;
      rows;
      row_height;
      px = [||];
      py = [||];
      placed = Bytes.empty;
      ports = Hashtbl.create 97;
    }
  in
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
  let live = Array.of_list (Netlist.live_insts nl) in
  let n = Array.length live in
  (* Cells by level, then by a draw below 1000, ties in [live] order: a
     cell's key [level * 1000 + draw], times [n] plus its index in [live],
     is distinct, so sorting these ints sorts the cells stably by key. *)
  let keys = Array.mapi (fun i iid -> ((((level.(iid) * 1000) + Rng.int rng 1000) * n) + i)) live in
  Array.stable_sort Int.compare keys;
  let cells = Array.map (fun key -> live.(key mod n)) keys in
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
  t.px <- c.xs;
  t.py <- c.ys;
  t.placed <- c.placed;
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
