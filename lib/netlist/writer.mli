(** Structural-Verilog-subset dump of a netlist.

    The subset is plain gate-level Verilog plus pragma comments that carry
    what Verilog cannot: [// @clock <net>] for every clock net (the clock
    inputs and the nets clock-tree synthesis buffered), [// @vgnd <inst>
    <switch>] for the sleep switch an MT-cell's virtual-ground port hangs
    from, and the [@domain], [@member] and [@isolation] power-domain
    table.  Inputs and outputs come in port order, wires and instances in
    id order, and clock marks in the order of the declarations, so
    [Parser.of_string] reads the text back to a netlist that writes the
    same text. *)

val to_string : Netlist.t -> string

val to_file : Netlist.t -> string -> unit
(** Write to a path. *)
