(** Versioned quality-of-results snapshots and baseline comparison.

    A snapshot ([BENCH_<tag>.json]) freezes, per workload (one flow run on
    one circuit), the numbers a change must not silently move:

    - {b QoR fields} — area, standby leakage, WNS, cluster count, total
      switch width, ... (floats, serialized round-trip-exactly);
    - {b work counters} — the deterministic {!Metrics} counters
      ([sta.arrival_evals], [place.iterations], ...) diffed over the
      workload, so "how much work" is tracked independently of "how long";
    - {b per-stage wall-clock} — milliseconds per flow stage, advisory
      only (machines differ; work counters are the portable proxy);
    - {b per-stage GC attribution} — present only when profiling was on,
      never compared.

    The same workload record is the payload of run-ledger lines and of
    campaign checkpoints, so one codec serves all three files.

    [compare] classifies every difference against a baseline with
    per-field tolerances: QoR and counters must match exactly (QoR up to
    a 1e-9 relative serialization guard), wall-clock only produces
    advisories.  The CLI's [bench-compare] exits non-zero iff
    [has_regressions].

    The [schema_version] field is checked first: a snapshot written by a
    different schema is itself a regression (refresh the baseline rather
    than guessing field semantics). *)

val schema_version : int
(** Version of the on-disk layout; bumped whenever fields are added,
    removed, or change meaning. *)

type workload = {
  w_name : string;  (** e.g. ["circuit_a/improved"] *)
  w_qor : (string * float) list;  (** sorted by field name *)
  w_counters : (string * int) list;  (** sorted by counter name *)
  w_stage_ms : (string * float) list;  (** flow order preserved *)
  w_prof : (string * Prof.stats) list;
      (** stage name -> GC delta, flow order; empty unless profiling was
          on.  Serialized as a trailing ["prof"] object only when
          non-empty; {!compare} ignores it. *)
}

type t = {
  s_version : int;
  s_tag : string;  (** the [<tag>] of [BENCH_<tag>.json] *)
  s_workloads : workload list;  (** sorted by workload name *)
}

val workload :
  name:string ->
  qor:(string * float) list ->
  counters:(string * int) list ->
  stage_ms:(string * float) list ->
  workload
(** [w_prof] starts empty; set it with a record update. *)

val make : tag:string -> workload list -> t
(** A snapshot at the current {!schema_version}; workloads are sorted. *)

(** {1 Serialization} *)

val to_json : t -> string
val of_json : string -> (t, string) result
val write : string -> t -> unit
val read : string -> (t, string) result

val workload_json : workload -> string
(** One workload as a JSON object — the element format of [to_json]'s
    [workloads] array, reused verbatim by the run ledger and campaign
    checkpoints. *)

val workload_of_json : Obs_json.t -> (workload, string) result

(** {1 Comparison} *)

type severity =
  | Advisory  (** worth a look, never fails the gate (wall-clock, new workloads) *)
  | Regression  (** QoR / work-counter / schema drift: the gate fails *)

type delta = {
  d_workload : string;
  d_field : string;  (** [qor.*], [counter.*], [stage_ms.*], [workload], [schema_version] *)
  d_baseline : float option;  (** [None] when absent on that side *)
  d_current : float option;
  d_severity : severity;
  d_note : string;
}

val compare : baseline:t -> current:t -> delta list
(** Every difference, baseline order; an empty list is a clean pass.
    Matching fields produce no delta. *)

val regressions : delta list -> delta list
val has_regressions : delta list -> bool

val render_delta : delta -> string
val render : delta list -> string
(** One line per delta plus a closing summary line. *)
