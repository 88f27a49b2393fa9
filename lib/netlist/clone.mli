(** Deep copy of a netlist.

    Implemented as a round-trip through {!Writer} and {!Parser}, which both
    exercises the serialization path and guarantees the clone carries
    exactly the information the dump format defines: connectivity, ports,
    every clock net (the clock-tree nets included), VGND attachments,
    holders and the power-domain table.  Ids are the parser's: dead
    instances are dropped and nets are numbered ports first.  Placement is
    not part of a netlist and is not cloned. *)

val copy : Netlist.t -> Netlist.t
