(** Drive-strength recovery.

    The paper's Dual-Vth baseline descends from "Power Minimization by
    Simultaneous Dual-Vth Assignment and Gate-sizing" (Wei et al., CICC
    2000): cell sizing is the second knob next to threshold choice.
    [downsize_idle] moves cells whose slack covers the slowdown one step
    down the library's X4/X2/X1 drive strengths, recovering area and
    leakage exactly like the high-Vth swap does — batch application with
    rollback, so timing never ends up violated.  It mutates the netlist
    and returns a consistent final STA. *)

type result = {
  resized : int;
  passes : int;
  sta : Smt_sta.Sta.t;
}

val downsize_idle : Smt_sta.Sta.config -> Smt_netlist.Netlist.t -> result
(** At most 8 passes; a cell is weakened only when its slack covers 1.5x
    the move's delay increase, its drivers' extra load included. *)

val sizable : Smt_netlist.Netlist.t -> Smt_netlist.Netlist.inst_id -> bool
(** Whether the instance's cell exists in another drive strength. *)
