(** Congestion-aware global routing.

    The die is tiled into gcells; every net is decomposed into two-pin
    connections along its rectilinear spanning tree, and each connection is
    routed with the less congested of its two L-shapes, updating edge usage
    as it commits.  The result reports per-edge overflow and gives each
    net's routed length — a sharper source for RC extraction than the
    spanning-length-times-detour estimate, and the basis for a measured
    (rather than assumed) routing detour factor. *)

type result

val route : ?gcell:float -> ?capacity:int -> Smt_place.Placement.t -> result
(** [gcell] is the tile edge in um (default 10.); [capacity] the number of
    tracks per gcell edge per direction (default 24). *)

val routed_nets : result -> int
val total_length : result -> float
val overflow : result -> int
(** Number of gcell edges whose usage exceeds capacity. *)

val max_congestion : result -> float
(** Worst usage/capacity ratio over all edges (0 on an empty design). *)

val net_length : result -> Smt_netlist.Netlist.net_id -> float
(** Routed wirelength of the net, um; 0 for unrouted/degenerate nets. *)

val detour_factor : result -> Smt_place.Placement.t -> float
(** Measured total routed length over total HPWL (>= ~1); the number the
    flow otherwise assumes as [options.detour]. 1.0 on empty designs. *)

val congested_length : result -> Smt_util.Geom.point list -> float
(** Effective routed length of a tree over the given points on the final
    congestion map: each gcell edge costs its physical length times
    [1 + usage/capacity], so wires through hotspots price longer — the
    measured replacement for the flow's assumed VGND detour factor.
    At least the plain rectilinear spanning length. *)
