(** QoR snapshot collection over the benchmark workloads.

    A workload is one flow run on one circuit, named
    ["<circuit>/<technique>"].  [collect] runs the standard six — circuits
    A and B under each of the three techniques — and freezes, per
    workload, the headline QoR fields of the report, the {!Smt_obs.Metrics}
    counter deltas attributable to that run alone (registry diffed before
    and after, so concurrent sections cannot contaminate each other), the
    per-stage wall-clock times, and — with profiling on — the per-stage
    GC attribution.

    The result is a {!Smt_obs.Snapshot.t} ready for [Snapshot.write] /
    [Snapshot.compare] — the payload behind [smt_flow bench-snapshot] and
    the committed [BENCH_*.json] baselines. *)

val default_workloads :
  (string * (Smt_cell.Library.t -> Smt_netlist.Netlist.t) * Flow.technique) list
(** Circuits A and B under each technique, in that order. *)

val counter_delta :
  before:(string * int) list -> after:(string * int) list -> (string * int) list
(** Per-counter difference, dropping counters that did not move.  Counters
    only present in [before] (impossible with a monotonic registry) are
    ignored. *)

val qor_of : Flow.report -> (string * float) list
(** The snapshot's QoR fields for one report: area, standby leakage, WNS,
    cluster/switch/holder/MT-cell counts, total switch width. *)

val workload_of_report :
  name:string -> before:(string * int) list -> Flow.report -> Smt_obs.Snapshot.workload
(** The one workload record of a completed flow: {!qor_of} the report,
    the counter delta from [before] to now, per-stage wall-clock, and —
    when profiling was on — per-stage GC attribution from
    [Flow.stage_prof].  Call it right after the run so [before]..now
    covers the run alone.  What snapshots, ledger lines and campaign
    checkpoints all store. *)

val collect : ?seed:int -> ?jobs:int -> tag:string -> unit -> Smt_obs.Snapshot.t
(** Run every default workload (seed 1 by default) and assemble the
    snapshot.  Mutates the calling domain's metrics store as a side
    effect of running the flows.  [jobs] (default 1) runs the six
    workloads concurrently via {!Smt_obs.Par}; each job's counters are
    collected in a scoped store, so the per-workload deltas are identical
    at any job count, and with profiling off so is the snapshot JSON
    (profiled workloads also carry GC attribution, which varies). *)
