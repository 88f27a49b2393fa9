(** The lint report: SARIF 2.1.0 export of semantic findings, the same
    report as text and JSON, and a previous SARIF report read back as a
    baseline.

    One run, driver ["smt_flow-lint"], the whole {!Rules} catalog as
    [reportingDescriptor]s, one [result] per finding.  Findings are
    netlist objects rather than file regions, so locations are
    [logicalLocations] with a [fullyQualifiedName] of
    ["<workload>/net:<name>"] (or [inst:]); the witness path rides
    along as a [relatedLocations] sequence.  A finding observed in a
    named sleep mode carries a second logical location
    ["<workload>/mode/<mode>"] of kind [namespace] so viewers can group
    by domain mode.  Waived findings are kept
    in the log with an [external] suppression, so a waiver remains
    auditable in the artifact.

    Output is deterministic: no timestamps, no absolute paths, ordering
    as given — byte-identical across [--jobs] counts. *)

type workload = {
  wl_name : string;  (** e.g. ["circuit_a/improved"] *)
  wl_findings : Rules.finding list;
  wl_waived : (Rules.finding * Waiver.entry) list;
}

val render : workload list -> string
(** The complete SARIF JSON document. *)

val render_text : workload list -> string
(** The lint's text report: per workload ["<name>: clean"] or the
    {!Rules.summary} (with [", N waived"]), then one indented line per
    finding and per waived finding (["waived (line N): ..."]).  Every
    line ends in a newline. *)

val render_json : workload list -> string
(** The lint's JSON report: one [{workload, findings, waived}] object
    per workload, each finding as [{rule, severity, location, message,
    witness}]. *)

(** {1 Baselines}

    A previous SARIF report, read back as the set of findings it
    accepted.  A finding's key is its rule id and its first logical
    location (["<workload>/<loc>"]); message text and witness stay out
    of the key, so a reworded diagnostic does not resurrect an accepted
    finding. *)

type baseline

val read_baseline : string -> (baseline, string) result
(** Every [runs[i].results[j]] of the file, suppressed ones included.
    A file that cannot be read, is not JSON, has no [runs] or [results]
    array, or holds a result without a string [ruleId] is an [Error]
    naming the path and the JSON location (e.g.
    ["b.sarif: $.runs[0].results[2].ruleId: missing"]).  A result
    without locations keys on [""]. *)

val baseline_keys : baseline -> (string * string) list
(** The (rule id, fully qualified name) keys, sorted. *)

val new_findings : baseline -> workload list -> Rules.finding list
(** Unwaived findings whose key is absent from the baseline, in report
    order. *)

val gate_fails : baseline option -> workload list -> bool
(** The lint's exit-1 decision: without a baseline, any unwaived Error
    finding; with one, any Error among {!new_findings}, so accepted debt
    stays visible in the report without failing CI. *)
