(** Shared reachability walks over the MT support structure.

    [Drc] (structural rules), [Repair] (fix-up candidates), and the
    semantic standby verifier ([Smt_verify]) all need the same questions
    answered: does an MT-cell's VGND reach a live switch, which switches
    actually gate members, what a net's holder record points at, which
    nets need a holder, and which net is the sleep enable.  The answers
    live here so the passes cannot drift apart.  (The verifier keys
    holders by the net their Z pin is wired to, which is what the silicon
    would do — a stale [Netlist.holder_of] record is exactly the kind of
    bug the semantic pass exists to catch.) *)

module Netlist = Smt_netlist.Netlist

type vgnd_state =
  | Ungated  (** the cell has no VGND port (plain / embedded / no-VGND) *)
  | Gated of Netlist.inst_id  (** hangs from this live sleep switch *)
  | Floating_vgnd  (** VGND port attached to nothing *)
  | Dead_switch of Netlist.inst_id  (** attached to a removed switch *)

val find_mte_net : Netlist.t -> Netlist.net_id option
(** The design's sleep-enable primary input, the net named [MTE], if
    it has one. *)

val mte_net_of : Netlist.t -> Netlist.net_id
(** {!find_mte_net}, created as a primary input on first use: where the
    MT transformations and the repair pass wire switches, holders and
    embedded MT-cells. *)

val vgnd_state : Netlist.t -> Netlist.inst_id -> vgnd_state
(** Where the instance's virtual ground lands.  Only [Vth.Mt_vgnd] cells
    can be anything other than [Ungated]. *)

type keeper_state =
  | No_keeper
  | Keeper of Netlist.inst_id  (** live HOLDER instance *)
  | Dead_keeper of Netlist.inst_id
  | Not_a_holder of Netlist.inst_id  (** recorded keeper is some other cell *)

val keeper_state : Netlist.t -> Netlist.net_id -> keeper_state
(** What the net's [holder_of] record points at. *)

val populated_switches : Netlist.t -> Netlist.inst_id list
(** Live sleep switches with at least one member MT-cell, in
    [Netlist.switches] order; one pass over the instances. *)

val sane_switches : Netlist.t -> Netlist.inst_id list
(** Live sleep switches whose footer width is finite and positive — the
    switches a repair or a standby analysis may rely on. *)

val holder_required : Netlist.t -> Netlist.net_id -> bool
(** The paper's holder rule: an output holder is unnecessary exactly
    when all fanouts of the MT-cell are themselves MT-cells (their inputs
    float together in standby).  Primary outputs and plain sinks need the
    value held.  False for nets not driven by a VGND-style MT-cell.  The
    MT transformations (switch insertion, holder minimization, repair)
    consult it while they run, and the DRC enforces it afterwards. *)
