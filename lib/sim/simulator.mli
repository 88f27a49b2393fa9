(** Compiled, levelized netlist simulator.

    Active mode evaluates the logic as usual.  Standby mode models the
    sleep state: every MT-cell's output floats (X) — unless the net carries
    an output holder, which forces it to 1, the holder polarity the paper
    specifies — while plain high-Vth cells keep evaluating whatever reaches
    them.  This lets tests observe exactly the floating-input hazard that
    holder insertion must eliminate.

    [create] compiles the netlist once into flat arrays: the combinational
    gates in {!Smt_netlist.Netlist.topo_order} with their input and output
    nets, one 3-valued truth table per cell kind filled from {!Logic.eval}
    (so X-propagation is exactly [Logic.eval]'s), each gate's standby
    value, and the flip-flops' Q/D nets and states.  [propagate],
    [clock_edge] and [reset] then do no name lookups and no per-gate
    allocation.  The compiled form is a snapshot: an edit to the netlist
    after [create] (a cell swap, a new holder, a rewired pin) is not seen
    until a new [create]. *)

type mode = Active | Standby

type t

val create : Smt_netlist.Netlist.t -> t
(** Compiles the netlist; every net starts at X and every flip-flop at 0.
    Raises [Smt_netlist.Netlist.Combinational_cycle]. *)

val netlist : t -> Smt_netlist.Netlist.t

val set_input : t -> Smt_netlist.Netlist.net_id -> Logic.value -> unit
(** Only primary-input nets may be set; raises [Invalid_argument]. *)

val set_inputs : t -> (string * Logic.value) list -> unit
(** By port name; unknown names raise [Invalid_argument]. *)

val propagate : ?mode:mode -> t -> unit
(** Combinational settle from current inputs and flip-flop states. *)

val clock_edge : t -> unit
(** Latch every flip-flop's D into its state (call after [propagate]). *)

val value : t -> Smt_netlist.Netlist.net_id -> Logic.value

val code_of : t -> Smt_netlist.Netlist.net_id -> int
(** The net's value as the simulator stores it: 0 for F, 1 for T, 2 for X.
    Two nets hold the same value exactly when their codes are equal. *)

val output_values : t -> (string * Logic.value) list

val ff_state : t -> Smt_netlist.Netlist.inst_id -> Logic.value
val set_ff_state : t -> Smt_netlist.Netlist.inst_id -> Logic.value -> unit
(** A flip-flop's latched state.  Both raise [Invalid_argument] on an
    instance that was not a live flip-flop at [create]. *)

val reset : ?state:Logic.value -> t -> unit
(** Reset flip-flop states (default all 0) and clear net values. *)

val floating_nets : t -> Smt_netlist.Netlist.net_id list
(** After a standby [propagate]: nets that settle to X — the nets whose
    downstream leakage the paper's holders suppress. *)
