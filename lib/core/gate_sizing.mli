(** Drive-strength recovery.

    The paper's Dual-Vth baseline descends from "Power Minimization by
    Simultaneous Dual-Vth Assignment and Gate-sizing" (Wei et al., CICC
    2000): cell sizing is the second knob next to threshold choice.
    [downsize_idle] moves cells whose slack covers the slowdown one step
    down the library's X4/X2/X1 drive strengths, recovering area and
    leakage exactly like the high-Vth swap does: through
    {!Vth_assign.batch_swap}, whose contract (batches, rollback, no
    second proposal after a revert) applies here as stated there. *)

type result = {
  resized : int;
  sta : Smt_sta.Sta.t;  (** final timing, consistent with the netlist *)
}

val downsize_idle : Smt_sta.Sta.config -> Smt_netlist.Netlist.t -> result
(** Mutates the netlist, in at most 8 passes.  A cell is weakened only
    when it has positive slack that {!Vth_assign.covers} the move's delay
    increase, its drivers' extra load included; reverts take the
    tightest slack first, as in {!Vth_assign.assign}. *)
