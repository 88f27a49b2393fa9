(** Block-based static timing analysis.

    Setup model: data launched at flip-flop clock pins (or primary inputs at
    time [input_arrival]) must arrive at capturing flip-flop D pins by
    [clock_period - setup + clock_latency] and at primary outputs by
    [clock_period - output_margin].  Hold model: the earliest arrival at a D
    pin must exceed [clock_latency + hold + hold_margin].

    MT-cells are derated by the voltage bounce of their virtual-ground line
    ([bounce_of]), which is how the switch-sizing constraint ("bounce below
    the designer's limit") connects to timing closure. *)

type config = {
  clock_period : float;  (** ps *)
  wire : Wire.t;
  bounce_of : Smt_netlist.Netlist.inst_id -> float;  (** volts on the cell's VGND *)
  clock_latency : Smt_netlist.Netlist.inst_id -> float;  (** ps to each FF clock pin *)
  input_arrival : float;
  output_margin : float;
  hold_margin : float;
  slew_model : Smt_cell.Nldm.store option;
      (** when set, delays come from NLDM tables and slew propagates;
          when [None], the plain linear model is used (slew-less) *)
}

val config : ?wire:Wire.t -> ?slew_aware:bool -> clock_period:float -> unit -> config
(** Defaults: ideal wires, zero bounce, zero clock latency and margins,
    linear (slew-less) delays. [slew_aware:true] enables the NLDM path. *)

type endpoint_kind =
  | Ff_data of Smt_netlist.Netlist.inst_id
  | Primary_output of string

type endpoint = {
  kind : endpoint_kind;
  net : Smt_netlist.Netlist.net_id;
  arrival : float;
  required : float;
  slack : float;
  hold_slack : float;
}

type t

val analyze : config -> Smt_netlist.Netlist.t -> t
(** Raises [Smt_netlist.Netlist.Combinational_cycle] on cyclic logic. *)

val netlist : t -> Smt_netlist.Netlist.t

val arrival : t -> Smt_netlist.Netlist.net_id -> float
(** Worst (max) arrival at the net's driver output; 0 for clock nets. *)

val slew : t -> Smt_netlist.Netlist.net_id -> float
(** Output slew at the net's driver (the default input slew under the
    linear model or at sources). *)

val required : t -> Smt_netlist.Netlist.net_id -> float
val net_slack : t -> Smt_netlist.Netlist.net_id -> float

val inst_slack : t -> Smt_netlist.Netlist.inst_id -> float
(** Setup slack of the instance's output net; [infinity] when it has none
    (flip-flops report the min of their D-endpoint and Q-net slacks).
    O(1): the D-endpoint slacks are recorded per instance when the
    endpoints are built. *)

val endpoints : t -> endpoint list
val wns : t -> float
(** Worst negative slack (positive when timing is met: this is the worst
    slack, whatever its sign). *)

val tns : t -> float
(** Total negative slack (0 when met). *)

val worst_hold_slack : t -> float
val meets_timing : t -> bool
val meets_hold : t -> bool

val load_of_net : config -> Smt_netlist.Netlist.t -> Smt_netlist.Netlist.net_id -> float
(** Capacitive load seen by the net's driver (pins + wire), fF. *)

val cell_delay : config -> Smt_netlist.Netlist.t -> Smt_netlist.Netlist.inst_id -> float
(** The instance's gate delay into its current load, bounce included. *)

val used_delay : t -> Smt_netlist.Netlist.inst_id -> float
(** The delay the analysis actually used for the instance (slew effects
    included under the NLDM model); 0 for instances with no output. *)

type path_step = {
  step_inst : Smt_netlist.Netlist.inst_id option;  (** [None] at a primary input *)
  step_net : Smt_netlist.Netlist.net_id;
  step_arrival : float;
}

val critical_path : t -> path_step list
(** Worst setup path, launch to capture, empty if there are no endpoints. *)

val path_to : t -> endpoint -> path_step list
(** Backtrace of the worst path into the given endpoint. *)

val worst_endpoints : t -> int -> endpoint list
(** The [k] smallest-slack endpoints, ascending by slack. *)

(** One hop of a critical path: the gate driving [arc_net] (or the launch
    point when [arc_inst] is [None]) together with how its arrival was
    built up.  Delay attribution: [arc_cell_delay] is the gate delay the
    analysis used for the driving instance (bounce derate and slew effects
    included); [arc_wire_delay] is the residual over the previous arc's
    arrival — the interconnect delay of the hop into the gate, and, on the
    launch arc, the clock latency (flip-flop source) or configured input
    arrival. *)
type path_arc = {
  arc_inst : Smt_netlist.Netlist.inst_id option;
  arc_net : Smt_netlist.Netlist.net_id;
  arc_cell_delay : float;
  arc_wire_delay : float;
  arc_arrival : float;  (** worst arrival at the net's driver output *)
  arc_slew : float;  (** output slew at the net's driver *)
}

(** A worst setup path as a structured record: the arcs launch-to-capture
    plus the final hop into the endpoint pin.  Invariant:
    [sum (cell + wire) over arcs + capture_wire = endpoint.arrival]. *)
type path = {
  path_endpoint : endpoint;
  path_arcs : path_arc list;  (** launch first *)
  path_capture_wire : float;  (** wire delay of the last hop into the endpoint pin *)
}

val worst_paths : t -> int -> path list
(** Structured reports of the [k] worst setup paths, ascending by slack —
    the first path's slack is {!wns}.  The "why" behind every WNS number
    the flow prints. *)

val path_report : t -> endpoint -> path
(** The structured worst path into one endpoint. *)

val endpoint_name : t -> endpoint -> string
(** [inst/D] for a flip-flop data pin, the port name for a primary
    output. *)

val update : t -> t
(** Incremental re-analysis after cell swaps that do not alter
    connectivity (Vth/MT restyling, drive resizing, DFF/retention swaps).
    The edits come from the netlist's touched-net journal
    ({!Smt_netlist.Netlist.touched_since} the version this analysis
    saw), so nothing the caller forgot can be missed.  Seed rule: the
    drivers of the touched nets — for a swapped cell, the cell itself
    through its output net and its fanin drivers through its input nets,
    whose load changed.  Loads are re-folded for exactly the touched
    nets, arrivals are recomputed only inside the downstream cone of the
    seeds, and required times are rebuilt.  The result equals
    [analyze cfg nl] on the mutated netlist.  A netlist that grew (added
    nets or instances, e.g. a buffer splice) is re-analyzed in full.
    Rewiring existing nets (moved sinks, removed instances) still needs a
    fresh [analyze]: the stored topological order may be stale. *)
