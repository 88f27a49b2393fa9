(** Dual-Vth assignment: demote off-critical cells to high-Vth.

    This is both the paper's baseline technique and the first replacement
    stage of the Selective-MT flow ("executed by the method which is
    similar to the way of generating the Dual-Vth circuit"): starting from
    an all-low-Vth netlist that meets timing, cells with enough setup slack
    are swapped to their high-Vth variant, largest slack first, in batches
    with rollback when a batch overshoots.  Cells left at low-Vth are by
    construction the (near-)critical ones — exactly the cells the
    Selective-MT flow then turns into MT-cells. *)

type result = {
  swapped : int;  (** cells now high-Vth *)
  passes : int;
  sta : Smt_sta.Sta.t;  (** final timing *)
}

val assign : Smt_sta.Sta.config -> Smt_netlist.Netlist.t -> result
(** Mutates the netlist, in at most 10 passes.  A candidate is swapped
    only when its slack covers 1.5x its own delay increase, absorbing
    same-path interactions; rollback then repairs any residual overshoot.
    The returned STA is consistent with the final netlist. *)

val low_vth_cells : Smt_netlist.Netlist.t -> Smt_netlist.Netlist.inst_id list
(** Live plain low-Vth logic cells (the Dual-Vth leftovers that a
    Selective-MT flow will replace with MT-cells). *)
