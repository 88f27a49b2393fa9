(** Observability-aware parallel map: {!Smt_util.Pool.map} plus the
    bookkeeping that keeps parallel runs indistinguishable from sequential
    ones to the metrics and trace consumers.

    Each job runs under {!Metrics.collect} and {!Trace.collect}; the job
    stores are merged back on the caller {e in input order}, so counter
    and histogram totals are identical at any job count.  Worker trace
    buffers are absorbed with [tid = 2 + input index], giving one Chrome
    trace row per job next to the caller's own [tid 1] row.  Per-stage
    GC attribution needs no scope: it travels in each job's result and
    in its trace spans' args.

    [jobs <= 1] is a plain [List.map] on the calling domain — no domains,
    no collection scopes, byte-identical to the pre-parallel behaviour. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving; exceptions re-raised on the caller (first failing
    input wins, as {!Smt_util.Pool.map}). *)
