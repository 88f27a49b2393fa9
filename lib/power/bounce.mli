(** Virtual-ground voltage bounce analysis.

    In active mode the cluster's switching current flows through its shared
    footer and the VGND wiring, lifting the virtual ground by
    [I * (R_switch + R_wire_eff)].  The designer's bounce limit is the
    central sizing constraint of the paper's back-end optimization: the
    footer must be wide enough that the bounce never exceeds it, because the
    bounce directly slows every cell in the cluster (see
    [Cell.bounce_derate]).

    The simultaneous-switching current of a cluster is estimated as the
    worst member's peak plus the activity-weighted average currents of the
    others — the diversity effect that lets one shared footer be far
    narrower than the sum of the per-cell footers conventional MT-cells
    embed. *)

val load_scale : float -> float
(** Current multiplier for a cell driving the given load (fF): switching
    current is the charge moved per transition, so it grows with the driven
    capacitance. Clamped to [0.4, 2.5]; ~1.0 at a typical 7.5 fF load. *)

val simultaneous_current :
  ?activity:Smt_sim.Activity.t ->
  ?load_of:(Smt_netlist.Netlist.inst_id -> float) ->
  Smt_netlist.Netlist.t ->
  members:Smt_netlist.Netlist.inst_id list ->
  float
(** Cluster current in uA; 0 for the empty cluster. Without an activity
    profile a conservative default toggle rate of 0.5 is assumed; without
    [load_of] (fF seen by each cell's output) the load factor is 1.  The
    load dependence is what makes pre-route (estimated RC) and post-route
    (extracted RC) sizing disagree — the error the paper's re-optimization
    pass exists to fix. *)

val sustained_current :
  ?activity:Smt_sim.Activity.t ->
  ?load_of:(Smt_netlist.Netlist.inst_id -> float) ->
  Smt_netlist.Netlist.t ->
  members:Smt_netlist.Netlist.inst_id list ->
  float
(** Activity-weighted average current (electromigration stress), uA. *)

val vgnd_wire_res : Smt_cell.Tech.t -> length:float -> float
(** Effective distributed resistance of a VGND line of the given length:
    a third of its wire resistance, the mean drop along a line with
    uniformly injected current (the far end sees half). *)

val bounce_v :
  Smt_cell.Tech.t -> switch_width:float -> wire_length:float -> current_ua:float -> float
(** Bounce in volts across footer plus VGND wiring. *)

type cluster_report = {
  switch : Smt_netlist.Netlist.inst_id;
  members : int;
  current_ua : float;
  wire_length : float;
  bounce : float;
  ok : bool;
}

val analyze :
  ?activity:Smt_sim.Activity.t ->
  ?load_of:(Smt_netlist.Netlist.inst_id -> float) ->
  ?limit:float ->
  Smt_netlist.Netlist.t ->
  wire_length_of:(Smt_netlist.Netlist.inst_id -> float) ->
  cluster_report list
(** One report per sleep switch in the netlist; [wire_length_of] maps a
    switch to its VGND line length (from placement). Default [limit] is the
    technology's bounce limit. *)

val worst : cluster_report list -> float
val violations : cluster_report list -> int

val bounce_of_fn :
  cluster_report list -> Smt_netlist.Netlist.t -> Smt_netlist.Netlist.inst_id -> float
(** Per-instance bounce for STA: an MT-cell sees its cluster's bounce; an
    embedded MT-cell sees the bounce of its private footer at its own peak
    current; plain cells see none. *)
