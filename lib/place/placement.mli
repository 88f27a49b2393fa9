(** Row-based standard-cell placement.

    Constructive placement orders cells by logic level (so connected cells
    land near each other), fills rows in a boustrophedon sweep, then runs
    force-directed refinement passes with per-row legalization.  Cells
    inserted later by the MT flow (switches, holders, MTE buffers, ECO
    buffers) are dropped at a requested point through [place_inst].

    The placement is the geometric substrate for: RC estimation and
    routing; VGND cluster wire-length budgeting (the paper's crosstalk
    cap); and positioning each shared switch at the centroid of its
    cluster. *)

type t

val place :
  ?seed:int ->
  ?utilization:float ->
  ?iterations:int ->
  Smt_netlist.Netlist.t ->
  t
(** Place all live instances. Defaults: seed 1, utilization 0.65, 12
    refinement passes.

    The refinement is compiled once per call: each cell's neighbours (the
    instances and port pads on its non-clock nets, in the order
    [pin_points] lists them, repeats included) become int arrays over
    float coordinate arrays, and every pass and every legalization works
    on those arrays in place.  A pass moves each cell halfway to the mean
    of its neighbours' current positions, reading the cells already moved
    in the same pass.  Any neighbour that sits exactly on the cell's own
    position is left out of that mean, whether or not it is the cell
    itself; a cell with no neighbour left stays put.

    The initial sweep orders cells by logic level (the longest path from a
    flip-flop or input over {!Smt_netlist.Netlist.fold_fanin_drivers}),
    then by a seeded draw below 1000, then by instance id.  Each legalization
    counting-sorts the cells into rows by their y, in reverse refinement
    order, orders each row by x, keeping that reverse order among cells on
    the same x, then refills the rows from the bottom left without
    exceeding the die width (the top row takes any excess) and puts each
    cell at its row's centre line.

    The placed points are kept in a table indexed by instance id, the
    refinement's own coordinate arrays, so every reader below is an array
    access. *)

val netlist : t -> Smt_netlist.Netlist.t
val die : t -> Smt_util.Geom.bbox
val row_count : t -> int

val inst_point : t -> Smt_netlist.Netlist.inst_id -> Smt_util.Geom.point
(** Raises [Not_found] for instances that were never placed. *)

val inst_point_opt : t -> Smt_netlist.Netlist.inst_id -> Smt_util.Geom.point option
(** [None] for any id that was never placed, including ids the netlist
    gained after [place].  An instance removed from the netlist keeps its
    point. *)

val place_inst : t -> Smt_netlist.Netlist.inst_id -> Smt_util.Geom.point -> unit
(** Record (or move) an instance at a point, clamped into the die.  The
    table grows to take ids past its end. *)

val port_point : t -> string -> Smt_util.Geom.point option
(** Boundary location of a primary port. *)

val pin_points : t -> Smt_netlist.Netlist.net_id -> Smt_util.Geom.point list
(** Locations of everything on a net: driver, sinks, holder, and the port
    pad when the net is a primary input/output. *)

val net_hpwl : t -> Smt_netlist.Netlist.net_id -> float
(** Half-perimeter wirelength of the net's bounding box; 0 for nets with
    fewer than two placed endpoints. *)

val total_hpwl : t -> float
val centroid : t -> Smt_netlist.Netlist.inst_id list -> Smt_util.Geom.point
(** Sum of the given instances' locations over the length of the list
    (an unplaced one adds nothing but still counts); die center for the
    empty list. *)

