(** Switching-activity estimation by random simulation.

    The clustering optimizer sizes each shared sleep switch for the cluster's
    simultaneous switching current; per-cell toggle rates measured here give
    the diversity factor that makes shared switches cheaper than the
    worst-case per-cell footers embedded in conventional MT-cells. *)

type t = {
  toggles_per_cycle : float array;  (** indexed by instance id; 0..1 *)
  cycles : int;
}

val estimate : ?cycles:int -> ?seed:int -> Smt_netlist.Netlist.t -> t
(** Random primary-input sequences on a {!Simulator} from reset; counts
    output toggles per instance.  Each cycle draws one [Rng.bool] per
    non-clock primary input, in [Netlist.inputs] order, then settles and
    clocks; clock inputs stay X.  The draw order is part of the contract:
    the same netlist and seed give the same factors, so cluster sizing and
    the flow's QoR stay stable. *)

val factor : t -> Smt_netlist.Netlist.inst_id -> float
(** Toggle probability of the instance's output per cycle (0 for
    instances with no output, e.g. switches). *)

val average : t -> float
