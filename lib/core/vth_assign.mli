(** Dual-Vth assignment: demote off-critical cells to high-Vth.

    This is both the paper's baseline technique and the first replacement
    stage of the Selective-MT flow ("executed by the method which is
    similar to the way of generating the Dual-Vth circuit"): starting from
    an all-low-Vth netlist that meets timing, cells with enough setup slack
    are swapped to their high-Vth variant, largest slack first, in batches
    with rollback when a batch overshoots.  Cells left at low-Vth are by
    construction the (near-)critical ones — exactly the cells the
    Selective-MT flow then turns into MT-cells.

    The batch-and-rollback loop is shared: {!Gate_sizing} (drive
    strengths) and {!Retention} (flip-flops) run the same {!batch_swap}
    with their own candidate rules. *)

(** {1 The shared batch-and-rollback loop} *)

type move = {
  iid : Smt_netlist.Netlist.inst_id;
  cell : Smt_cell.Cell.t;  (** the cell the move swaps in *)
  undo : Smt_cell.Cell.t;  (** the cell before the move: a revert puts it back *)
}

val batch_swap :
  passes:int ->
  Smt_sta.Sta.t ->
  (Smt_netlist.Netlist.inst_id list -> move list) ->
  int
(** [batch_swap ~passes sta propose] runs at most [passes] passes over
    the session's netlist and returns how many moves stay applied.  Each
    pass:
    - offers [propose] the live instances, ascending, less every instance
      an earlier revert put back (so a reverted instance is never
      proposed again);
    - applies every proposed move (at most one per instance), then
      {!Smt_sta.Sta.update}s [sta];
    - while [Sta.wns sta < 0] and moves of this pass remain, reverts the
      first [max 1 (n / 8)] of the [n] that remain, in the order
      [propose] listed them (tightest first), and updates [sta] again.
    The loop stops early on a pass with no proposal (without touching
    [sta]) or one that keeps none of its moves.  Afterwards the netlist
    meets timing whenever it did before the first pass, and [sta] is
    consistent with it. *)

val covers : slack:float -> delta:float -> bool
(** The candidate margin every user of {!batch_swap} applies: [slack] is
    at least 1.5x the move's delay increase [delta] (at least 0 for a
    move that speeds the path up), absorbing same-path interactions so
    rollback rarely has to act. *)

val tightest_first : (float * move) list -> move list
(** Revert order for slack-keyed moves: the reverse of a stable sort by
    descending slack. *)

(** {1 Dual-Vth assignment} *)

type result = {
  swapped : int;  (** cells now high-Vth *)
  sta : Smt_sta.Sta.t;  (** final timing *)
}

val assign : Smt_sta.Sta.config -> Smt_netlist.Netlist.t -> result
(** Mutates the netlist through {!batch_swap}, in at most 10 passes.  A
    low-Vth cell is a candidate when it has positive slack that {!covers}
    its own delay increase at its current load.  The returned STA is
    consistent with the final netlist. *)

val low_vth_cells : Smt_netlist.Netlist.t -> Smt_netlist.Netlist.inst_id list
(** Live plain low-Vth logic cells (the Dual-Vth leftovers that a
    Selective-MT flow will replace with MT-cells). *)
