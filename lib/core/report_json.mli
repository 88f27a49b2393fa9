(** Machine-readable (JSON) serialization of flow reports.

    For dashboards and regression tracking: one object per flow report
    (including per-stage metrics with wall-clock durations and the
    leakage breakdown), or a Table-1 comparison as an array of rows.
    A report carries only what its own run produced: the process-wide
    {!Smt_obs.Metrics} registry, which sums every run since start-up,
    is not part of it.  Hand-rolled emitter, no dependencies; output is
    valid JSON. *)

val of_report : Flow.report -> string

val of_rows : Compare.row list -> string
(** The Table-1 comparison as JSON. *)
