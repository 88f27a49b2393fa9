(** Switch-transistor and output-holder insertion (improved flow).

    Implements the paper's insertion stage verbatim: every MT-cell without
    a VGND port is replaced by the variant with one; {e one} switch
    transistor is added and every VGND port is connected to its drain,
    forming the initial switch structure that the clustering optimizer
    will replace; output holders are inserted only on nets that need them —
    "when all fanouts of the MT-cell are connected to MT-cells, an output
    holder is unnecessary".

    The MTE enable signal becomes a primary input driving the switch and
    every holder (buffering comes later, with routing). *)

type result = {
  initial_switch : Smt_netlist.Netlist.inst_id;
  holders_inserted : int;
  holders_avoided : int;  (** MT-driven nets that needed no holder *)
  mte_net : Smt_netlist.Netlist.net_id;
}

val insert : ?minimize_holders:bool -> Smt_place.Placement.t -> result
(** Mutates the netlist and places the new cells. [minimize_holders]
    (default true) applies the all-fanouts-MT rule; switching it off
    instantiates a holder on every MT-driven net, the conventional
    behaviour, for the ablation.  The temporary single switch is
    {!Smt_cell.Library.initial_switch_width} wide.  Raises
    [Invalid_argument] if the netlist has no MT-cells awaiting ports. *)

val mte_net_of : Smt_netlist.Netlist.t -> Smt_netlist.Netlist.net_id
(** {!Smt_check.Walk.mte_net_of}: the design's MTE primary input,
    created on first use. *)

val connect_embedded_mte : Smt_netlist.Netlist.t -> Smt_netlist.Netlist.net_id -> unit
(** Wires the [MTE] pin of every embedded (conventional) MT-cell that has
    none to the given net: the conventional flow's only MTE wiring. *)
