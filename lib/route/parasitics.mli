(** Per-net parasitics: placement-based estimation vs post-route extraction.

    The paper's flow constructs the switch structure {e before} routing from
    RC estimated off the placement, notes that "there is an error when
    compared with the precise RC information which is generated after
    routing", and re-optimizes afterwards from SPEF.  This module provides
    both corners:

    - [estimate] prices every net at its bounding-box half-perimeter with a
      deterministic pseudo-random error of up to the technology's
      [rc_estimation_error] (optimistic or pessimistic per net);
    - [extract] prices every net at its routed length — a rectilinear
      spanning tree over the pins times a congestion detour factor — which
      plays the role of the signed-off extraction.

    Either corner converts to an STA wire model (Elmore) and serializes to
    a SPEF-like text form. *)

type corner = Estimated | Extracted

type t

val corner : t -> corner

val estimate : ?seed:int -> Smt_place.Placement.t -> t
(** Pre-route RC from the placement, with estimation error applied. *)

val extract : ?detour:float -> Smt_place.Placement.t -> t
(** Post-route RC; [detour] (default 1.15) scales spanning-tree length to
    account for congestion-driven routing detours. *)

val net_length : t -> Smt_netlist.Netlist.net_id -> float
(** Routed/estimated wirelength, um; 0 for unknown nets. *)

val net_cap : t -> Smt_netlist.Netlist.net_id -> float
(** Wire capacitance, fF. *)

val net_res : t -> Smt_netlist.Netlist.net_id -> float
(** Wire resistance, ohm. *)

val total_wirelength : t -> float

val wire_model : t -> Smt_netlist.Netlist.t -> Smt_sta.Wire.t
(** STA wire model: net cap plus per-sink Elmore delay. *)

val to_spef : t -> Smt_netlist.Netlist.t -> string
(** SPEF-like dump ([*D_NET name cap], [*R res], [*L length]). *)

val of_spef : lib:Smt_cell.Library.t -> Smt_netlist.Netlist.t -> string -> t
(** Parse a dump produced by [to_spef] against the same netlist. Raises
    [Failure] on malformed input. *)
