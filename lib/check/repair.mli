(** Repair pass over the checker's repairable violation classes.

    Given a netlist and the violations [Drc.check] reported on it, fixes
    what has a known local remedy:

    - floating MTE pins are reconnected to the design's MTE net (created as
      a primary input if absent, as switch insertion does);
    - MT-cells with an unreachable VGND (floating port, removed switch, or
      still portless post-MT) are attached to the nearest live sleep
      switch — a fresh one is created and placed at their centroid when no
      live switch remains;
    - missing or broken output holders are (re-)inserted next to the
      driving cell;
    - degenerate footer widths (zero, negative, NaN) are clamped to
      {!Smt_cell.Library.initial_switch_width}, the flow's
      initial-structure footer width, which also sizes replacement
      switches;
    - instances whose cell data went bad (NaN/negative fields) are restored
      to the canonical library cell of the same name, when that cell is
      itself sane;
    - switches left with no members are removed, and unplaced instances are
      dropped at the die center.

    Unrepairable classes (undriven nets, combinational loops, …) are left
    untouched.  Running [repair] on the violations of an already-repaired
    netlist performs no actions, so the pass is idempotent. *)

type result = {
  repaired : int;  (** number of repair actions performed *)
  actions : string list;  (** human-readable description of each action *)
}

val repair : ?place:Smt_place.Placement.t -> Smt_netlist.Netlist.t -> Violation.t list -> result
(** Mutates the netlist (and placement, when given: new/clamped cells are
    placed). *)
