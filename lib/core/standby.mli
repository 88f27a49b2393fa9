(** Standby entry / exit sequencing and verification.

    The paper's circuits are only useful if the block actually survives a
    sleep cycle: MTE asserts, the logic floats behind the footers (held
    where holders exist), the clock is gated, and on wake the block must
    compute exactly as if it had never slept.  This module simulates that
    protocol against a never-slept reference and reports what the
    Selective-MT invariants promise:

    - no floating (X) net reaches always-on logic or a primary output
      during standby (the holders' job);
    - flip-flop state survives (flip-flops stay on the true rails);
    - after wake-up, outputs match the reference from the first cycle.

    It also measures the MTE enable tree's insertion delay, which bounds
    how fast the sleep signal itself can propagate. *)

type outcome = {
  cycles_run : int;
  state_preserved : bool;
  outputs_defined_in_standby : bool;
      (** no primary output floats while asleep *)
  x_leaks_into_awake_logic : int;
      (** floating nets with a non-MT sink, per standby cycle summed *)
  first_wake_cycle_correct : bool;
  all_wake_cycles_correct : bool;
}

val simulate : ?seed:int -> Smt_netlist.Netlist.t -> outcome
(** Run the sleep protocol on a post-flow netlist: 4 active cycles, 3 in
    standby, 4 after wake-up (must expose an MTE input; designs without
    one simply never float). *)

val mte_tree_delay : Smt_sta.Sta.config -> Smt_netlist.Netlist.t -> float
(** Worst insertion delay from the MTE port to any switch or holder through
    the buffer tree, ps. 0 when there is no MTE net. *)
