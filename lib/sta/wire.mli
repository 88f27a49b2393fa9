(** Wire model abstraction consumed by STA.

    Before routing, the router supplies placement-based estimates; after
    routing, extracted parasitics. STA itself does not care which — this is
    the seam that lets the flow re-run timing and switch sizing on the
    extracted RC, as the paper's post-route re-optimization stage
    requires. *)

type t = {
  net_cap : Smt_netlist.Netlist.net_id -> float;
      (** capacitance the net adds to its driver's load, fF *)
  net_delay : Smt_netlist.Netlist.net_id -> Smt_netlist.Netlist.inst_id -> float;
      (** wire delay from the net's driver to the given sink instance's
          pin on the net, ps.  It may read the sink's cell (its input
          capacitance) but not which of its pins is on the net: STA asks
          once per pin and caches the answer until the pin leaves the net
          or the sink's cell is swapped. *)
}

val zero : t
(** Ideal wires (unit tests, pre-placement timing). *)

val lumped : cap_per_fanout:float -> delay_per_fanout:float -> t
(** Crude fanout-proportional model for quick estimates. *)
