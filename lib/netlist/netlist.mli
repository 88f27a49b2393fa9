(** Gate-level netlist graph.

    Instances and nets live in dense id-indexed vectors; connectivity is
    kept on both sides (instance pin list, net driver/sink lists) so that
    timing, placement, and the MT transformations can walk either way.

    Three connections get special treatment, matching the paper's circuit
    style:
    - an MT-cell's VGND port is not an ordinary pin: it is recorded as the
      id of the sleep-switch instance the cell hangs from
      ([vgnd_switch] / [set_vgnd_switch]);
    - an output holder is a weak keeper on a net, not a second driver; it is
      recorded on the net ([holder_of]) and its MTE pin is a normal input;
    - clock nets are flagged so that STA and CTS can find them. *)

type inst_id = int
type net_id = int

type pin = { inst : inst_id; pin_name : string }

type t

exception Combinational_cycle of string

val create : name:string -> lib:Smt_cell.Library.t -> t
val design_name : t -> string
val lib : t -> Smt_cell.Library.t

(** {1 Nets and ports} *)

val add_net : ?clock:bool -> t -> string -> net_id
(** Fresh net. Raises [Invalid_argument] if the name exists. *)

val fresh_net : t -> string -> net_id
(** Fresh net with a uniquified name derived from the stem. *)

val add_input : ?clock:bool -> t -> string -> net_id
(** Primary input port plus its net. *)

val add_output : t -> string -> net_id
(** Primary output port plus its net. *)

val mark_output : t -> net_id -> unit
(** Expose an existing net as a primary output. *)

val mark_clock : t -> net_id -> unit
(** Flag a net as part of the clock network (CTS uses this for the tree
    nets it creates so timing analysis keeps treating them as clock). *)

val net_count : t -> int
val net_name : t -> net_id -> string
val find_net : t -> string -> net_id option
val is_pi : t -> net_id -> bool
val is_po : t -> net_id -> bool
val is_clock_net : t -> net_id -> bool
val driver : t -> net_id -> pin option
val sinks : t -> net_id -> pin list
val holder_of : t -> net_id -> inst_id option
val inputs : t -> (string * net_id) list
val outputs : t -> (string * net_id) list
val clock_net : t -> net_id option

(** {1 Instances} *)

val add_inst : t -> name:string -> Smt_cell.Cell.t -> (string * net_id) list -> inst_id
(** Create an instance and connect the given pins. Pin directions are
    derived from the cell kind. Raises [Invalid_argument] on duplicate
    names, unknown pins, or a second strong driver on a net. *)

val fresh_inst_name : t -> string -> string

val inst_count : t -> int
(** Total slots including removed instances; use [live_insts] to iterate. *)

val inst_name : t -> inst_id -> string
val find_inst : t -> string -> inst_id option
val cell : t -> inst_id -> Smt_cell.Cell.t
val conns : t -> inst_id -> (string * net_id) list
val pin_net : t -> inst_id -> string -> net_id option
val output_net : t -> inst_id -> net_id option
(** The net on the instance's (single) output pin, if connected. *)

val is_dead : t -> inst_id -> bool

val replace_cell : t -> inst_id -> Smt_cell.Cell.t -> unit
(** Swap the library cell (e.g. low-Vth -> high-Vth -> MT variant). The new
    cell must expose the same pin names; raises [Invalid_argument]
    otherwise. *)

val connect : t -> inst_id -> string -> net_id -> unit
val disconnect : t -> inst_id -> string -> unit

val move_sink : t -> from_net:net_id -> pin -> to_net:net_id -> unit
(** Re-home one sink pin onto another net (buffer splicing). *)

val remove_inst : t -> inst_id -> unit
(** Unlink every pin and tombstone the instance. *)

val set_vgnd_switch : t -> inst_id -> inst_id option -> unit
(** Attach/detach an MT-cell's VGND port to a sleep-switch instance.
    Raises [Invalid_argument] if the cell has no VGND port or the target is
    not a sleep switch. *)

val vgnd_switch : t -> inst_id -> inst_id option

val set_holder : t -> net_id -> inst_id option -> unit
(** Record a holder instance as the keeper of a net. *)

(** {1 Power domains}

    A domain is a named group of instances that sleeps (or stays awake)
    together.  A domain with an MTE enable net is sleepable: asserting
    that net cuts the domain's MT-cells.  A domain without one is
    always-on.  Membership is per instance; unassigned instances belong
    to the implicit always-on domain.  Isolation marks declare a holder
    as a boundary (level) cell so analyses and generators can tell a
    crossing keeper from an ordinary output holder.  The table survives
    {!Writer}/{!Parser} round-trips via [@domain]/[@member]/[@isolation]
    pragmas. *)

val add_domain : t -> name:string -> mte:net_id option -> unit
(** Declare a domain; [mte = None] declares an always-on domain.
    Raises [Invalid_argument] on a duplicate name. *)

val domains : t -> (string * net_id option) list
(** Declared domains in declaration order. *)

val set_inst_domain : t -> inst_id -> string option -> unit
(** Assign (or clear) an instance's domain.  Raises [Invalid_argument]
    on an undeclared domain name. *)

val inst_domain : t -> inst_id -> string option

val set_isolation : t -> inst_id -> bool -> unit
(** Mark an instance as a declared isolation/level-holder cell at a
    domain boundary. *)

val is_isolation : t -> inst_id -> bool

(** {1 Touched-net journal}

    Every mutator above (net creation, pin attach/detach, cell swap,
    switch or holder rewiring, domain assignment) advances the netlist's
    {!version} and stamps with it each net whose standby value or driver
    load could have changed — a cell swap stamps every net the cell pins.
    The journal is a read-only cursor: an incremental analysis remembers
    the version it last saw and asks for the nets touched after it, so
    any number of analyses ([Smt_sta.Sta.update],
    [Smt_verify.Verify.update]) can follow one netlist without consuming
    each other's edits. *)

val version : t -> int
(** The current journal stamp; it grows with every touch. *)

val touched_since : t -> int -> net_id list
(** The nets touched after the given version, ascending.  Reading never
    clears anything. *)

(** {1 Traversal} *)

val live_insts : t -> inst_id list
val iter_insts : t -> (inst_id -> unit) -> unit
(** Live instances only. *)

val iter_nets : t -> (net_id -> unit) -> unit

val fanin_insts : t -> inst_id -> inst_id list
(** Distinct instances driving this instance's input pins. *)

val topo_order : t -> inst_id list
(** Combinational instances in topological (fanin-first) order; flip-flops,
    switches, and holders are excluded (they are sources/sinks of the
    combinational frame). Raises [Combinational_cycle]. *)

val switch_members : t -> inst_id -> inst_id list
(** MT-cells hanging from the given sleep switch. *)

val switches : t -> inst_id list
(** All live sleep-switch instances. *)

val switch_groups : t -> (inst_id * inst_id list) list
(** Every live sleep switch paired with its members, in [switches] order
    with members as [switch_members] lists them — but built in one pass
    over the instances, where a [switch_members] call per switch is
    O(switches × instances).  Callers iterating all switches should use
    this. *)

val total_area : t -> float
(** Sum of live instance areas. *)
