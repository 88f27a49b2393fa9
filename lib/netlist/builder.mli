(** Convenience layer for constructing netlists gate by gate.

    Every gate a builder creates is a low-Vth [Plain] cell: generators
    build the all-low-Vth netlist the paper's flow starts from, before
    replacement. *)

type t

val create : name:string -> lib:Smt_cell.Library.t -> t

val netlist : t -> Netlist.t

val input : ?clock:bool -> t -> string -> Netlist.net_id
val output : t -> string -> Netlist.net_id
val net : t -> string -> Netlist.net_id

val gate : t -> Smt_cell.Func.kind -> Netlist.net_id list -> Netlist.net_id
(** Instantiate a combinational gate on the given input nets (in
    [Func.input_names] order); returns a fresh output net. *)

val gate_into : t -> Smt_cell.Func.kind -> Netlist.net_id list -> Netlist.net_id -> unit
(** Like [gate] but drives an existing net (e.g. a primary output). *)

val dff : t -> d:Netlist.net_id -> clk:Netlist.net_id -> Netlist.net_id
(** Flip-flop; returns its Q net. *)

val dff_into : t -> d:Netlist.net_id -> clk:Netlist.net_id -> Netlist.net_id -> unit

val not_ : t -> Netlist.net_id -> Netlist.net_id
val and_ : t -> Netlist.net_id -> Netlist.net_id -> Netlist.net_id
val or_ : t -> Netlist.net_id -> Netlist.net_id -> Netlist.net_id
val xor_ : t -> Netlist.net_id -> Netlist.net_id -> Netlist.net_id
val nand_ : t -> Netlist.net_id -> Netlist.net_id -> Netlist.net_id
val nor_ : t -> Netlist.net_id -> Netlist.net_id -> Netlist.net_id
val mux_ : t -> sel:Netlist.net_id -> Netlist.net_id -> Netlist.net_id -> Netlist.net_id

val reduce_tree :
  t -> (t -> Netlist.net_id -> Netlist.net_id -> Netlist.net_id) ->
  Netlist.net_id list -> Netlist.net_id
(** Balanced binary reduction, e.g. [reduce_tree b and_ nets].
    Raises [Invalid_argument] on the empty list. *)

val full_adder :
  t -> a:Netlist.net_id -> b:Netlist.net_id -> cin:Netlist.net_id ->
  Netlist.net_id * Netlist.net_id
(** Gate-level full adder; returns (sum, carry). *)
