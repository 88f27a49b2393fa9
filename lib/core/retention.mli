(** Retention-register conversion (extension).

    The Selective-MT technique only gates combinational logic: flip-flops
    must keep their state and stay on the true rails, so low-Vth flip-flops
    on critical paths remain a standby leakage floor in every flow.
    Balloon-style retention flip-flops remove that floor at an area and
    clk->q cost; this pass converts every flip-flop whose slack covers the
    penalty, largest leakage saving first, with the same batch-and-rollback
    discipline as the Vth assignment. *)

type result = {
  converted : int;
  sta : Smt_sta.Sta.t;
}

val convert : Smt_sta.Sta.config -> Smt_netlist.Netlist.t -> result
(** Mutates the netlist; timing is preserved.  A flip-flop converts only
    when its slack covers 1.5x the conversion's delay penalty. *)

val retention_registers : Smt_netlist.Netlist.t -> Smt_netlist.Netlist.inst_id list
