(** The semantic rule catalog and its findings.

    Rule ids are stable, kebab-case, and public API: waiver files match
    on them, [lib/fault]'s semantic fault classes name them in
    [expected_rules], and the SARIF export publishes them as
    [reportingDescriptor]s.  Renaming one is a breaking change. *)

type severity = Error | Warn

type rule = {
  id : string;  (** stable kebab-case identifier *)
  severity : severity;
  summary : string;  (** one line, shown in listings and SARIF *)
  repairable : bool;
      (** whether [Smt_check.Repair] knows a fix; semantic findings
          encode design intent the repair pass cannot guess, so today
          the whole catalog is unrepairable *)
}

val float_into_awake : rule
(** A net floats in standby and is read by always-on logic or exposed on
    a primary output — the paper's "unexpected power" hazard. *)

val crowbar_risk : rule
(** A powered gate input may be at an intermediate voltage in standby
    (value [top]): both halves of its input stage can conduct. *)

val useless_holder : rule
(** A holder keeps a net that never floats, or that only floating logic
    reads — area spent on nothing. *)

val mte_polarity : rule
(** A sleep switch, holder, or embedded MT-cell sees MTE = 0 while the
    design sleeps: inverted enable polarity or a constant disable. *)

val mte_undetermined : rule
(** An MTE control pin does not evaluate to a constant in standby. *)

val retention_input_float : rule
(** A retention flip-flop's data input floats in standby: the saved
    state would be restored into corrupted surroundings. *)

val cross_domain_float : rule
(** A net driven from a sleeping power domain may float into logic of a
    domain that is still awake in the analyzed mode — the multi-domain
    form of [float_into_awake], reported even when a (non-functional)
    holder is wired. *)

val missing_isolation : rule
(** A net crosses a sleeping domain's boundary toward powered readers
    with no isolation holder wired on it at all. *)

val isolation_enable_off_domain : rule
(** An isolation holder guards a sleeping domain's output but its MTE
    enable comes from a {e different} domain, so the clamp engages (or
    releases) on the wrong domain's schedule. *)

val always_on_path : rule
(** A combinational path between awake endpoints routes through a
    sleeping domain's MT logic: the through-gate's output is stale or
    floating while both ends still run. *)

val all : rule list
val find : string -> rule option

val severity_name : severity -> string
(** ["error" | "warning"]. *)

type finding = {
  rule : rule;
  loc : string;  (** ["net:<name>"] or ["inst:<name>"] *)
  mode : string;
      (** sleep-mode vector the finding was observed in, e.g.
          ["sleep{a,b}"]; [""] on single-domain (legacy) analyses *)
  message : string;
  witness : string list;
      (** propagation path, origin first, as [net:]/[inst:] steps *)
}

val to_string : finding -> string
(** One line: [severity rule-id @ loc \[mode\]: message \[via a -> b\]];
    the [\[mode\]] segment is omitted when [mode] is empty. *)

val key : finding -> string
(** Identity of a defect: rule id, location and witness, not the message
    or mode, so a reworded message or a second mode that observes the same
    defect cannot pass as a new finding.  The flow guard's first-seen
    filter and the verifier's cross-mode dedup both key on it. *)

val errors : finding list -> finding list
val warnings : finding list -> finding list
val has_errors : finding list -> bool

val summary : finding list -> string
(** ["N errors, M warnings"]. *)
