(** Structural design-rule checker over a netlist (and, optionally, its
    placement and library).

    The rules encode the invariants the Improved-SMT flow relies on:
    connectivity (no undriven nets, no floating required pins, no
    combinational loops), the MT structure (every VGND-port MT-cell hangs
    from a live sleep switch, every sleep-crossing output carries a holder,
    the MTE net is driven and within the buffering fanout cap, footers have
    sane widths), and data sanity (no NaN/negative delay, leakage, cap, or
    area on any cell in use).

    Every finding is a typed {!Violation.t} so callers can branch on
    severity and class — the flow's guard mode and the fault-injection
    tests both do; {!validate} is a string view of the errors. *)

type phase =
  | Pre_mt  (** before switch insertion: VGND ports must not exist yet *)
  | Post_mt  (** after switch insertion: VGND and holder rules enforced *)

val infer_phase : Smt_netlist.Netlist.t -> phase
(** [Post_mt] iff the netlist contains a sleep switch or a VGND-port
    MT-cell; the right default for checking a finished design. *)

val check :
  ?phase:phase ->
  ?place:Smt_place.Placement.t ->
  ?expect_buffered_mte:bool ->
  Smt_netlist.Netlist.t ->
  Violation.t list
(** Run every rule; order is deterministic (net rules, instance rules,
    design rules).  [phase] defaults to [infer_phase].  With [place],
    instances lacking coordinates are reported.  [expect_buffered_mte]
    (default true) enables the MTE fanout-cap warning — the flow disables
    it for checkpoints before MTE buffering has run. *)

val check_library : Smt_cell.Library.t -> Violation.t list
(** Data-sanity sweep over every cell of a library. *)

val has_errors : Violation.t list -> bool

val validate : ?phase:phase -> Smt_netlist.Netlist.t -> string list
(** String view of [check]: the Error-severity findings rendered with
    {!Violation.to_string} (empty list = well-formed).  The MTE
    fanout-cap advisory is suppressed. *)

val is_valid : ?phase:phase -> Smt_netlist.Netlist.t -> bool
