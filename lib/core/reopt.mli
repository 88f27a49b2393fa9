(** Post-route re-optimization of the switch structure.

    Pre-route switch sizing worked from VGND lengths estimated off the
    placement; routed VGND lines are longer (detours), so some clusters
    bounce above the limit.  This pass re-prices every cluster's VGND line
    at its routed length and resizes each footer so the bounce constraint
    holds again — the paper's second CoolPower invocation, after SPEF
    extraction. *)

type adjustment = {
  switch : Smt_netlist.Netlist.inst_id;
  old_width : float;
  new_width : float;
  routed_length : float;
  bounce_before : float;
  bounce_after : float;
}

type result = {
  adjustments : adjustment list;  (** one per cluster, resized or not *)
  resized : int;
  violations_before : int;
  violations_after : int;
}

val reoptimize :
  ?activity:Smt_sim.Activity.t ->
  ?load_of:(Smt_netlist.Netlist.inst_id -> float) ->
  ?params:Cluster.params ->
  ?detour:float ->
  Smt_place.Placement.t ->
  result
(** [detour] (default 1.15) converts estimated VGND length to routed
    length; [load_of] should report post-route (extracted) loads, which
    is where most of the re-sizing pressure comes from.  Currents follow
    {!Cluster.sim_current}.  Mutates switch cells in place. *)
