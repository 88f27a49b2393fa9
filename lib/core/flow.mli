(** End-to-end design flows for the three techniques of Table 1.

    Every flow starts from the same precondition as the paper's Fig. 4:
    an all-low-Vth netlist, physically synthesized (placed), whose clock
    period is chosen so the low-Vth circuit meets timing with a margin.
    Then:

    - {b Dual-Vth}: high-Vth swap of off-critical cells; CTS; routing;
      hold ECO. The remaining low-Vth cells leak all through standby —
      the baseline both Selective-MT styles are normalized against.
    - {b Conventional Selective-MT}: the low-Vth survivors become embedded
      MT-cells (private switch + holder each, Fig. 1a); the MTE net is
      created, connected to every MT-cell, and buffered.
    - {b Improved Selective-MT}: the survivors become MT-cells without
      VGND ports, then switch/holder insertion, VGND clustering and switch
      sizing on pre-route estimates, routing + CTS + MTE buffering,
      post-route switch re-optimization, and the hold ECO — the paper's
      full Fig. 4 pipeline.

    [run] mutates the netlist it is given; use [Smt_netlist.Clone.copy] or
    a generator thunk ([run_all]) to compare techniques on one circuit.

    {2 Guarding}

    With [options.guard] above {!Guard_off}, every stage snapshot is
    followed by a structural design-rule check ({!Smt_check.Drc.check})
    against the live netlist.  The check's phase comes from the netlist
    itself ({!Smt_check.Drc.infer_phase}): once it holds a sleep switch or
    a VGND-port MT-cell, the post-MT rules apply and the semantic standby
    verifier ({!Smt_verify.Verify}) runs too.  A finding is reported once,
    by the first stage that shows it.

    - {!Guard_warn} records findings as report diagnostics (and
      [check.violations] / [lint.findings] metrics) and keeps going;
    - {!Guard_repair} first lets {!Smt_check.Repair.repair} fix what it
      can (reconnect floating MTE pins, re-insert holders, clamp
      degenerate footers, ...), then records whatever remains;
    - {!Guard_strict} raises {!Flow_error} on the first Error-severity
      finding, naming the stage and the offending objects.

    Under every guard mode, an exception out of the MT-construction stages
    becomes a {!Flow_error} at stage ["MT construction"]: the flow never
    ships a half-built switch structure.

    With the guard at its {!Guard_off} default no check or repair runs and
    reports are bit-identical to a build without this subsystem. *)

type technique = Dual_vth | Conventional_smt | Improved_smt

val technique_name : technique -> string
(** The paper's column heading: ["Dual-Vth"], ["Con.-SMT"], ["Imp.-SMT"]. *)

val technique_slug : technique -> string
(** ["dual"], ["conventional"], ["improved"]: the canonical spelling that
    names workloads, ledger records and campaign jobs. *)

val technique_of_string : string -> (technique, string) result
(** A slug, or one of its aliases ["dual-vth"], ["con"], ["imp"]; an
    unknown spelling is an [Error] naming the choices. *)

(** Per-stage netlist validation policy; see the module preamble. *)
type guard = Guard_off | Guard_warn | Guard_repair | Guard_strict

val guard_name : guard -> string
val guard_of_string : string -> (guard, string) result

type flow_error = {
  fe_stage : string;  (** stage whose post-check (or body) failed *)
  fe_circuit : string;
  fe_diagnostics : string list;  (** rendered violations or the exception *)
}

exception Flow_error of flow_error
(** Raised under {!Guard_strict} when a stage leaves Error-severity
    findings behind, and under any guard other than {!Guard_off} when MT
    construction fails (stage ["MT construction"], the exception as the
    one diagnostic). *)

type options = {
  seed : int;
  clock_margin : float;  (** slack margin over the all-low-Vth critical path *)
  assignment_margin : float;
      (** margin the Vth assignment is allowed to consume.  Must stay below
          [clock_margin]: the difference is the timing reserve that absorbs
          the MT conversion penalty (series footer plus VGND bounce), which
          is how the paper's replacement stage keeps "the timing
          specification satisfied" *)
  utilization : float;
  placement_iterations : int;
  activity_cycles : int;
  cluster_params : Cluster.params option;  (** [None]: technology defaults *)
  minimize_holders : bool;  (** the all-fanouts-MT holder rule (ablation knob) *)
  gate_sizing : bool;
      (** also downsize off-critical cells to weaker drive strengths after
          the Vth assignment (the sizing half of the Wei et al. baseline);
          applies to all three techniques *)
  retention_registers : bool;
      (** convert slack-rich flip-flops to retention flip-flops, removing
          the sequential standby-leakage floor (extension; applies to all
          techniques) *)
  slew_aware : bool;
      (** time the whole flow with the NLDM table model and slew
          propagation instead of the linear model *)
  reoptimize : bool;  (** post-route switch resizing (ablation knob) *)
  detour : float;  (** routed/estimated VGND length ratio *)
  mte_max_fanout : int option;
  cts_max_fanout : int;
  max_hold_iterations : int;
  guard : guard;  (** per-stage structural checking; default {!Guard_off} *)
}

val default_options : options

type stage = {
  stage_name : string;
  stage_area : float;
  stage_standby_nw : float;
  stage_wns : float;
  stage_worst_bounce : float;
  stage_switches : int;
  stage_holders : int;
  stage_ms : float;  (** wall-clock time from the previous snapshot to this one *)
  stage_prof : Smt_obs.Prof.stats option;
      (** GC/heap cost over the same interval; [None] unless profiling
          ({!Smt_obs.Prof.enable}, CLI [--profile]) was on.  When [Some],
          the stage's trace span also carries it as [minor_words],
          [major_words], [minor_collections] and [major_collections]
          args. *)
}

type report = {
  technique : technique;
  circuit : string;
  clock_period : float;
  area : float;
  standby_nw : float;
  leakage : Smt_power.Leakage.breakdown;
  wns : float;
  hold_slack : float;
  worst_bounce : float;
  bounce_violations : int;
  timing_met : bool;
  hold_met : bool;
  n_mt_cells : int;
  n_switches : int;
  n_clusters : int;
  n_holders : int;
  holders_avoided : int;
  n_mte_buffers : int;
  n_cts_buffers : int;
  n_hold_buffers : int;
  swapped_to_high_vth : int;
  cells_downsized : int;
  ffs_retained : int;
  reopt_resized : int;
      (** switches the post-route re-optimization resized (improved flow) *)
  reopt_violations_repaired : int;
      (** bounce-limit violations the re-optimization removed *)
  mt_area_fraction : float;
  total_switch_width : float;
  stages : stage list;
  diagnostics : string list;
      (** guard findings in flow order: violations (rendered once each,
          however many stages they persist through) and repair actions.
          Empty under {!Guard_off} *)
  check_violations : int;  (** distinct violations the guard recorded *)
  check_repairs : int;  (** repair actions applied under {!Guard_repair} *)
}

val endpoint_free_fallback_ps : float
(** Period [minimal_period] reports for a netlist with no timing endpoints
    (no non-clock primary outputs and no flip-flops): with nothing for STA
    to constrain, the worst slack is [+inf] and no finite critical path
    exists, so the flow assumes this nominal 100 ps period rather than a
    meaningless one.  The condition is logged at [warn] level and surfaces
    from the checker as a [no-timing-endpoints] violation. *)

val minimal_period : ?slew_aware:bool -> wire:Smt_sta.Wire.t -> Smt_netlist.Netlist.t -> float
(** Minimal clock period of the netlist under the wire model: STA at a
    probe period minus the worst slack.  Falls back to
    {!endpoint_free_fallback_ps} when the design has no timing endpoints.
    {!run} applies the same rule to its own probe analysis, which then
    becomes the flow's timing session. *)

val run : ?options:options -> technique -> Smt_netlist.Netlist.t -> report
(** @raise Flow_error as documented at {!Flow_error}. *)

(** The analysis context behind a report's headline numbers, for QoR
    attribution ({!Explain}): the placement, the final post-route STA
    configuration and analysis (whose {!Smt_sta.Sta.wns} is the report's
    [wns]), the final bounce reports, the built clusters (improved flow
    only), and the cluster parameters the run used.

    [art_sta] is the flow's one timing session.  The run opens it with
    the period probe and re-times it in place
    ({!Smt_sta.Sta.reanalyze}) at every stage snapshot and for the final
    timing; a layer that times the netlist in a session of its own (the
    Vth assignment, gate sizing, retention conversion, the hold ECO)
    runs while the flow holds none and hands its session over.  It is
    left as the final snapshot timed it, before that stage's guard
    check. *)
type artifacts = {
  art_place : Smt_place.Placement.t;
  art_cfg : Smt_sta.Sta.config;
  art_sta : Smt_sta.Sta.t;
  art_bounce : Smt_power.Bounce.cluster_report list;
  art_clusters : Cluster.cluster list;
  art_params : Cluster.params;
}

val run_with_artifacts :
  ?options:options -> technique -> Smt_netlist.Netlist.t -> report * artifacts
(** [run], also handing back the final-state artifacts instead of
    discarding them.  [run] is [fst] of this. *)

val run_all :
  ?options:options -> ?jobs:int -> (unit -> Smt_netlist.Netlist.t) -> report list
(** One fresh netlist per technique, in order
    [Dual_vth; Conventional_smt; Improved_smt].  [jobs] (default 1) runs
    the techniques concurrently on that many domains via {!Smt_obs.Par};
    reports and metric totals are identical at any job count.
    @raise Flow_error from the first technique, in that order, whose run
    raised it. *)

val pp_report : Format.formatter -> report -> unit
(** One line per run.  [downsized=N retained=M] follows when gate sizing
    or retention changed a cell, and [check_viol=N check_repairs=M] last
    when the guard recorded a warning or a repair. *)
