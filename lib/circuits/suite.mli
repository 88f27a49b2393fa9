(** The evaluation circuits.

    The paper's circuits A and B are unnamed Toshiba production blocks; we
    substitute synthetic blocks with the structural properties the results
    imply:

    - {b circuit A} is datapath-dominated — an array multiplier plus deep,
      uniform-depth registered logic.  Nearly every path is close to
      critical, so Dual-Vth assignment leaves a large low-Vth (→ MT)
      population: large conventional-SMT area overhead, big improved-SMT
      saving (paper: 164.8% → 133.2%).
    - {b circuit B} is control-flavoured — shallow layered logic with wide
      depth variation plus a small ALU.  Much of it has slack and goes
      high-Vth, so the MT population and the overheads are smaller
      (paper: 142.2% → 115.7%).

    Generators return a fresh netlist per call ([Flow.run] mutates its
    input). *)

val circuit_a : Smt_cell.Library.t -> Smt_netlist.Netlist.t
val circuit_b : Smt_cell.Library.t -> Smt_netlist.Netlist.t

val tiny : Smt_cell.Library.t -> Smt_netlist.Netlist.t
(** A small registered block for fast tests (a ripple adder). *)

val x2_mapped : Smt_cell.Library.t -> Smt_netlist.Netlist.t -> Smt_netlist.Netlist.t
(** Upsizes, in place, every cell of the netlist that has an X2 variant
    and returns the netlist: a block as if synthesis had mapped it to X2,
    so gate sizing has weaker drives to pick.  The generators map every
    cell to X1. *)

val fig23_example : Smt_cell.Library.t -> Smt_netlist.Netlist.t
(** A flip-flop-bounded fragment shaped like the paper's Fig. 2/3 example:
    a few critical gates between registers, with fanouts both inside and
    outside the critical set. *)

val multi_domain :
  ?domains:int -> name:string -> Smt_cell.Library.t -> Smt_netlist.Netlist.t
(** A post-MT SoC of [domains] (2-4, default 3) independently-gated
    power domains: per-domain enable input [mte_<d>], sleep switch, and
    output holders, plus a ring of boundary crossings each clamped by a
    declared isolation holder.  Healthy by construction — DRC-clean and
    lint-clean in every sleep mode — so tests and fault injection mutate
    from a known-good baseline.  Already MT-structured: feed it to
    {!Smt_verify.Verify.analyze} directly, not to the flow. *)

val all : (string * (Smt_cell.Library.t -> Smt_netlist.Netlist.t)) list
(** Named generators, for the CLI.  [mult8x2] is the 8-bit multiplier
    {!x2_mapped}, the one circuit on which [--gate-sizing] resizes. *)

val is_multi_domain : string -> bool
(** Whether a [all] entry names a {!multi_domain} circuit (these are
    post-MT already, so the CLI lints them raw instead of running the
    flow). *)
