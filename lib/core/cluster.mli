(** Switch-transistor structure construction — the back-end optimization the
    paper delegates to CoolPower(TM).

    MT-cells are grouped into clusters that each share one footer, subject
    to the paper's three constraints:
    - the VGND line of a cluster (rectilinear spanning tree over the
      members and the switch) must stay under the crosstalk length limit;
    - the number of cells per switch is capped (electromigration), as is
      the sustained current (the technology's [em_current_limit]);
    - the footer is then sized so that the cluster's simultaneous-switching
      current keeps the VGND bounce under the designer's limit, wire
      resistance included, with a 10% width reserve.

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
  diversity : bool;
      (** size footers for the activity-weighted simultaneous current
          rather than the sum of member peak currents *)
}

val default_params : Smt_cell.Tech.t -> params

val validate : params -> (params, string) result
(** The constraints' domain: a finite bounce limit > 0 V, a finite VGND
    length cap >= 0 um and at least one cell per switch.  [Error] names
    the first constraint out of range and its value. *)

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
    to the direct scan.  A switch's length stays valid while its member
    list is unchanged and neither it nor a member moves: after {!build},
    no flow stage but a guard repair changes either, so the flow takes
    the lengths once after clustering. *)

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
    [Invalid_argument] when [params] fail {!validate} or a single cell
    cannot satisfy the constraints.

    Currents come from one {!Smt_power.Bounce.currents} table of
    [activity] and [load_of], made once the old structure is dissolved and
    read in full before the first new switch goes in; footers are sized
    for {!Smt_power.Bounce.sizing_current} under [diversity], and each
    cell's placed point and sweep key are read once per build.  Every
    candidate is priced once, its members in sweep order (oldest first),
    as [members] lists them: the cell cap, the EM current, then the
    centroid and VGND length against the length cap, then the current
    and a width that meets the bounce limit.  A group grows while its
    next candidate prices and closes when one does not; its switch is
    the last successful price, so a group the check admitted always has
    a width.  The centroid divides by the member count whether or not
    each member is placed; the VGND line spans the centroid, then the
    placed members in list order; the worst member is the first strict
    maximum of the peak currents, so it depends on the order among equal
    peaks. *)
