(** Block-based static timing analysis.

    Setup model: data launched at flip-flop clock pins (or primary inputs at
    time 0) must arrive at capturing flip-flop D pins by
    [clock_period - setup + clock_latency] and at primary outputs by
    [clock_period].  Hold model: the earliest arrival at a D pin must
    exceed [clock_latency + hold + hold_margin].

    MT-cells are derated by the voltage bounce of their virtual-ground line
    ([bounce_of]), which is how the switch-sizing constraint ("bounce below
    the designer's limit") connects to timing closure. *)

type config = {
  clock_period : float;  (** ps *)
  wire : Wire.t;
  bounce_of : Smt_netlist.Netlist.inst_id -> float;  (** volts on the cell's VGND *)
  clock_latency : Smt_netlist.Netlist.inst_id -> float;  (** ps to each FF clock pin *)
  hold_margin : float;
  slew_model : Smt_cell.Nldm.store option;
      (** when set, delays come from NLDM tables and slew propagates;
          when [None], the plain linear model is used (slew-less) *)
}

val config : ?wire:Wire.t -> ?slew_aware:bool -> clock_period:float -> unit -> config
(** Defaults: ideal wires, zero bounce, zero clock latency and hold
    margin, linear (slew-less) delays. [slew_aware:true] enables the NLDM
    path. *)

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
(** A timing session over one netlist: its compiled timing graph and the
    values propagated over it.  {!update} refreshes it in place, the way
    [Smt_verify.Verify.update] refreshes a verification session, and
    {!reanalyze} re-times it in place under a new config.

    The [sta.analyses] counter counts analyses: each compile of the
    graph ({!analyze}, and an {!update} or {!reanalyze} that recompiles)
    and each {!reanalyze}.  An analysis adds every arrival it evaluates
    (each launched flip-flop and each timed gate) to [sta.arrival_evals].
    [sta.incremental_updates] counts the {!update}s that kept the graph,
    and only those observe [sta.update_evals]. *)

val analyze : config -> Smt_netlist.Netlist.t -> t
(** Compiles and times the netlist from scratch.  Raises
    [Smt_netlist.Netlist.Combinational_cycle] on cyclic logic, naming the
    instance {!Smt_netlist.Netlist.topo_order} names (as does {!update}
    when an edit closes a cycle). *)

val reanalyze : t -> config -> unit
(** [reanalyze t cfg] makes [t] equal [analyze cfg (netlist t)] bit for
    bit, in place, and counts as exactly that analysis: one
    [sta.analyses] and the same [sta.arrival_evals], with no
    [sta.incremental_updates].  It brings the graph up to the netlist
    through the journal step {!update} uses (the touched nets, array
    growth, then the graph extended under the splice rule, or else
    recompiled), and then re-times every arrival and endpoint from
    scratch under [cfg], leaving the required times to the next
    {!required}.  Only the wire model is baked into the graph (its pin
    wire delays and its loads): a [cfg.wire] that is not physically
    [t]'s wire model keeps the graph and reads every slot's wire delay
    and every net's load again, in the kept arrays.  Every other field
    (period, hold margin, bounce, clock latency, slew model) is read
    while timing, so changing it costs no compile.  Raises like
    {!update} on a cycle. *)

val netlist : t -> Smt_netlist.Netlist.t

val arrival : t -> Smt_netlist.Netlist.net_id -> float
(** Worst (max) arrival at the net's driver output; 0 for clock nets. *)

val slew : t -> Smt_netlist.Netlist.net_id -> float
(** Output slew at the net's driver (the default input slew under the
    linear model or at sources). *)

val required : t -> Smt_netlist.Netlist.net_id -> float
(** The net's setup required time at its driver, [infinity] when no
    endpoint reads it.  Required times are computed when read: the first
    read after {!analyze}, {!reanalyze} or {!update} runs one backward
    pass over the graph, and later reads until the next of those cost
    nothing.  The pass reads only the session's arrays, which hold the
    graph and delays as of that call, so netlist edits made since do not
    change what it returns.  A read can write the session, so a session
    is not read from two domains at once. *)

val net_slack : t -> Smt_netlist.Netlist.net_id -> float
(** [required] minus {!arrival}; [infinity] when no endpoint reads the
    net.  The first read after an analysis, {!reanalyze} or {!update}
    runs the backward pass, as for {!required}. *)

val inst_slack : t -> Smt_netlist.Netlist.inst_id -> float
(** Setup slack of the instance's output net; [infinity] when it has none
    (flip-flops report the min of their D-endpoint and Q-net slacks).
    Reads {!net_slack}, so the first read after an analysis,
    {!reanalyze} or {!update} runs the backward pass.
    The D-endpoint slacks are recorded per flip-flop when the endpoints
    are built, in an array sized by the flip-flop count, and a flip-flop
    finds its own by binary search over the flip-flops (kept in id
    order): O(1) for a gate, O(log flip-flops) for a flip-flop. *)

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

val load_of_inst : config -> Smt_netlist.Netlist.t -> Smt_netlist.Netlist.inst_id -> float
(** {!load_of_net} of the instance's output net; 0 when it has none. *)

val load : t -> Smt_netlist.Netlist.inst_id -> float
(** The load the session holds for the instance's output net, 0 when it
    has none: [load_of_inst cfg nl iid] under the session's config as of
    its last analysis, {!reanalyze} or {!update}, read without folding
    the net's sinks again.  A proposal loop that reads it between
    updates (the Vth assignment's, gate sizing's) sees exactly the loads
    the timing used.  Raises [Invalid_argument] when the output net was
    created after the session last synced with its netlist. *)

val cell_delay : config -> Smt_netlist.Netlist.t -> Smt_netlist.Netlist.inst_id -> float
(** The instance's gate delay into its current load, bounce included. *)

val used_delay : t -> Smt_netlist.Netlist.inst_id -> float
(** The delay the analysis actually used for the instance (slew effects
    included under the NLDM model); 0 for instances with no output. *)

(** One hop of a critical path: the gate driving [arc_net] (or the launch
    point when [arc_inst] is [None]) together with how its arrival was
    built up.  Delay attribution: [arc_cell_delay] is the gate delay the
    analysis used for the driving instance (bounce derate and slew effects
    included); [arc_wire_delay] is the residual over the previous arc's
    arrival — the interconnect delay of the hop into the gate, and, on the
    launch arc, the clock latency of a flip-flop source (0 at a primary
    input). *)
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
(** Structured reports of the [k] worst setup paths, ascending by slack
    (ties keep the order of {!endpoints}) — the first path's slack is
    {!wns}.  The "why" behind every WNS number the flow prints. *)

val path_report : t -> endpoint -> path
(** The structured worst path into one endpoint: from the endpoint's net
    back through each net's worst (first-max) input to its launch
    point. *)

val endpoint_name : t -> endpoint -> string
(** [inst/D] for a flip-flop data pin, the port name for a primary
    output. *)

val update : t -> unit
(** Refreshes the session in place after any edit to its netlist, so it
    equals [analyze cfg nl] on the edited netlist bit for bit, [cfg]
    being the session's config.  The edits come from the netlist's
    touched-net journal ({!Smt_netlist.Netlist.touched_since} the version
    [t] last saw), so nothing the caller forgot can be missed.

    [analyze] compiles the timing graph once into [t]: the combinational
    instances in {!Smt_netlist.Netlist.topo_order} (its array, kept
    without a copy), each gate's data-pin nets with the wire delay of
    each pin, and the flip-flops with their D pins.  Each data pin and
    each D is a slot, and the slots reading one net are linked into its
    reader list.  Each live instance's connection list is read once, for
    its output (Z or Q), its data pins in [Func.input_names] order and
    its D pin; the slot and flip-flop arrays are sized from counts taken
    before they are filled, with a third to spare.

    {b The splice rule.}  The journal step keeps that graph when the
    edits are only
    - cell swaps that keep the same pins (Vth/MT restyling, drive
      resizing, DFF/retention swaps);
    - supply edits: VGND switches, domains, isolation marks, holders;
    - new nets;
    - new instances whose output, if any, is a new net, and whose
      combinational fanin drivers are older instances or new gates: each
      new gate joins the order after every gate it reads, which keeps it
      topological (the hold ECO's buffer splices in either creation
      order, and a clock tree built bottom-up, where a parent buffer is
      newer than the child it drives);
    - flip-flop D pins moved to other nets.
    It checks this per kind of touch
    ({!Smt_netlist.Netlist.rewired_since}):
    - a structurally touched net must still be driven by the gate or
      flip-flop that timed it, and have exactly its compiled data-pin
      readers, each pin on the slot compiled for it (a reader whose row
      holds every data pin of its kind is checked at that slot; any
      other instance involved re-reads its pins, which must be the
      compiled ones, so no old gate gained a pin there and every
      flip-flop keeps its Q); a flip-flop whose D is there, now or at the
      last step, re-reads D, and its D slot follows D into the new net's
      reader list.  Flip-flops whose D net was not rewired are not read
      again, nor are those whose clock pin moved;
    - a value-touched net keeps every connection, so nothing is re-read
      but its load and, for each reader in its reader list whose cell
      was swapped, that reader's wire delays.
    A reader that passes a rewired net's slot check refreshes its wires
    the same way, and an instance that re-reads its pins does too.  One
    rule thus finds every swapped cell: a swap touches every net the
    cell pins, its inputs among them, and each of its data pins and its
    D is a slot in one of those nets' reader lists.  (A swapped instance
    with no connected data pin or D has no wire to read.)
    Any other edit (a gate input moved between existing nets, a removed
    gate, a moved Q, a new gate driving an old net, a loop among new
    gates) recompiles [t], which counts as an analysis, refilling the
    kept arrays where they have room.  So does a touched net that a
    combinational gate drives into a combinational gate's input that is
    not a data pin (an embedded MT-cell's [MTE]): the levelization counts
    that edge though timing does not, and the recompile raises
    [Combinational_cycle] on a loop closed through it, naming the same
    instance as [analyze].

    Loads are re-folded for every touched net.  The wire model must give
    the same delay into a sink as long as its pin stays on the net and
    the sink keeps its cell (as [Smt_route.Parasitics.wire_model] does:
    Elmore delay over the net's RC into the sink's input capacitance).

    {b The cone.}  Arrivals are recomputed from the drivers of the
    touched nets through their combinational fanout only, in [order]:
    a gate is timed when it drives a touched net or reads a retimed one,
    found through the retimed net's reader list.  A flip-flop re-launches
    when it drives a touched net, never because its D moved, since Q
    depends on the clock and not on D.  Endpoints are rebuilt, and
    required times are reset to the endpoints': the backward pass that
    fills in the rest waits for the next {!required}, {!net_slack} or
    {!inst_slack}, as after an analysis. *)
