(** Switch-transistor structure construction — the back-end optimization the
    paper delegates to CoolPower(TM).

    MT-cells are grouped into clusters that each share one footer, subject
    to the paper's three constraints:
    - the VGND line of a cluster (rectilinear spanning tree over the
      members and the switch) must stay under the crosstalk length limit;
    - the number of cells per switch is capped (electromigration), as is
      the sustained current;
    - the footer is then sized so that the cluster's simultaneous-switching
      current keeps the VGND bounce under the designer's limit, wire
      resistance included.

    Clustering is geometric: cells are swept in placement order and packed
    greedily while all constraints remain satisfiable, then each cluster's
    switch is placed at the member centroid.  Activity-aware sizing
    ([diversity = true]) uses measured toggle rates for the cluster
    current; turning it off sizes every footer for the sum of member peak
    currents — the per-cell worst case conventional embedded MT-cells pay —
    which is the ablation showing where the improved style's area win
    comes from. *)

type params = {
  bounce_limit : float;  (** V *)
  length_limit : float;  (** um of VGND line per cluster *)
  cell_limit : int;
  current_limit : float;  (** uA sustained per switch *)
  sizing_margin : float;  (** fractional width reserve, default 0.10 *)
  diversity : bool;
  length_factor : float;
      (** scales computed VGND lengths (1.0 pre-route estimate; the
          post-route pass re-prices with the routing detour) *)
}

val default_params : Smt_cell.Tech.t -> params

type cluster = {
  switch : Smt_netlist.Netlist.inst_id;
  members : Smt_netlist.Netlist.inst_id list;
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

val required_width : Smt_cell.Tech.t -> params -> current_ua:float -> wire_length:float -> float option
(** Footer width achieving the bounce limit at this current over this VGND
    line; [None] when the wire alone already exceeds the budget (the
    cluster must shrink). *)

val vgnd_length :
  ?members:Smt_netlist.Netlist.inst_id list ->
  Smt_place.Placement.t ->
  Smt_netlist.Netlist.inst_id ->
  float
(** Current VGND spanning length of a switch's cluster (switch included).
    Scans the netlist for the members unless [members] is supplied. *)

val vgnd_lengths :
  Smt_place.Placement.t -> Smt_netlist.Netlist.inst_id -> float
(** Precomputed [vgnd_length] for every current switch in one netlist
    pass — the efficient [wire_length_of] callback for
    {!Smt_power.Bounce.analyze}.  Switches added after the call fall back
    to the direct scan. *)

val build :
  ?activity:Smt_sim.Activity.t ->
  ?load_of:(Smt_netlist.Netlist.inst_id -> float) ->
  ?params:params ->
  Smt_place.Placement.t ->
  mte_net:Smt_netlist.Netlist.net_id ->
  result
(** Dissolves the existing switch structure (e.g. the single initial
    switch), clusters every VGND-style MT-cell, and creates and places
    one sized footer per cluster on the MTE net.  Raises
    [Invalid_argument] when a single cell cannot satisfy the
    constraints. *)
