(** Trend analysis over a run {!Ledger} (or a directory of snapshot
    files): per-workload, per-metric time series, best/worst/latest
    values, and regression detection across N points.

    Classification genuinely reuses {!Snapshot.compare}: every adjacent
    pair of records containing a workload is compared as two
    single-workload snapshots, so the Regression/Advisory rules (exact
    QoR and counter equality, ratio-with-floor advisory wall-clock) are
    defined in exactly one place.

    All output is deterministic given the records: workloads and fields
    sort lexicographically, points keep ledger time order, and nothing
    here reads a clock — so [runs trend --json] byte-compares across
    repeated invocations. *)

type point = { p_time : float; p_id : string; p_value : float }

type status = Steady | Advisory | Regression

type series = {
  sr_workload : string;
  sr_field : string;
      (** ["qor.<field>"], ["counter.<name>"], or ["stage_ms.<stage>"] *)
  sr_points : point list;  (** ledger time order *)
  sr_status : status;
      (** worst classification over all adjacent-pair transitions *)
}

val status_name : status -> string

val of_snapshot_dir : string -> (Ledger.record list, string) result
(** Read every [*.json] snapshot in a directory (filename order) as a
    pseudo-ledger — one record per file, indexed synthetic timestamps —
    so [trend] also works on a directory of [BENCH_*.json] baselines.
    A file that is not a snapshot is an [Error]: the first such file's
    {!Snapshot.read} error, which names the file and the JSON location
    ([runs trend --snapshot-dir] exits 2 with it). *)

val analyze :
  ?metric:string ->
  ?workload:string ->
  ?qor_only:bool ->
  Ledger.record list ->
  series list
(** [metric]/[workload] filter by substring.  With no [metric] filter,
    [qor_only] (default [true]) restricts to [qor.*] fields; pass
    [~qor_only:false] for every counter and stage too. *)

val regressions :
  Ledger.record list -> (string * string * Snapshot.delta) list
(** Every Regression-severity delta across every adjacent record pair,
    as [(from_id, to_id, delta)]. *)

val has_regressions : Ledger.record list -> bool

val render : series list -> string
(** Text table: workload, metric, point count, first/latest/best/worst,
    status. *)

val to_json : series list -> string
val render_regressions : Ledger.record list -> string
