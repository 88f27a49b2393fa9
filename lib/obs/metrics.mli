(** Process-global registry of named counters, gauges, and fixed-bucket
    histograms.

    Registration is idempotent: [counter "x"] returns the same counter every
    time, so hot-path modules bind their instruments once at module
    initialization and pay one integer/float store per event afterwards.
    Instruments never affect computation results — they only observe — so a
    run with the registry untouched is bit-identical to one that dumps it.

    {b Domain safety.}  Instrument {e definitions} (names) are global and
    mutex-guarded, so concurrent registration from worker domains is safe.
    Instrument {e values} are per-domain: [incr]/[set]/[observe] touch only
    the calling domain's store and never contend, and the readers
    ([counters], [snapshot], [to_json], ...) report the calling domain's
    values.  Parallel jobs hand their effects back to the caller through
    {!collect} and {!merge}; merging job stores in input order reproduces
    the sequential totals exactly — counters and histograms are additive
    (order-independent), gauges are last-write-wins.

    Naming convention: [subsystem.thing_unit] (e.g. [sta.arrival_evals],
    [eco.buffers_added], [flow.stage_ms]). *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Monotonically increasing integer count. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val gauge : string -> gauge
(** Last-write-wins float value. *)

val set : gauge -> float -> unit
val add : gauge -> float -> unit
val gauge_value : gauge -> float

val histogram : ?buckets:float list -> string -> histogram
(** Fixed upper-bound buckets (an implicit [+inf] bucket is always added).
    The bucket list of the first registration wins.  Default buckets suit
    millisecond durations: powers of ~3 from 0.1 ms to 10 s. *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_hits : histogram -> int array
(** A copy of the calling domain's per-bucket hit counts, one slot per
    bound plus the trailing [+inf] bucket.  Subtracting two snapshots
    gives the hits of just the phase between them. *)

val quantile_of_hits : histogram -> int array -> float -> float
(** [quantile_of_hits h hits q] — Prometheus-style bucket quantile
    (linear interpolation within the winning bucket; the open [+inf]
    bucket reports its lower bound) computed over an explicit hit-count
    array, e.g. a before/after delta of {!histogram_hits}.  [nan] when
    the hits are empty. *)

val histogram_quantile : histogram -> float -> float
(** [quantile_of_hits h (histogram_hits h) q]. *)

val counters : unit -> (string * int) list
(** Current value of every registered counter, sorted by name.  Counters
    are the deterministic "work done" instruments (arrival evaluations,
    placement iterations, ...), which is what QoR snapshots diff per
    workload — gauges and histograms carry wall-clock and are excluded. *)

val snapshot : unit -> (string * float) list
(** Current value of every instrument, sorted by name.  Histograms
    contribute [name.count], [name.sum], and estimated [name.p50] /
    [name.p90] / [name.p99] quantiles ([nan] while empty). *)

val reset : unit -> unit
(** Zero every registered instrument in the calling domain's store
    (registrations survive).  For tests and benchmark harnesses that diff
    the registry between workloads. *)

type collected
(** The instrument values accumulated during one {!collect} scope. *)

val collect : (unit -> 'a) -> 'a * collected
(** [collect f] runs [f] against a fresh, empty value store and returns
    its result together with everything [f] recorded; the caller's own
    values are untouched and restored before returning (also on
    exception, in which case the recorded values are discarded with the
    re-raise).  The parallel-sweep primitive: run each job under
    [collect], then {!merge} the job stores on the caller in input
    order. *)

val merge : collected -> unit
(** Fold a collected store into the calling domain's store: counters and
    histogram buckets/sums add; gauges that were written inside the
    scope overwrite the caller's value (last-write-wins). *)

val to_json : unit -> string
(** The whole registry as one JSON object:
    [{"counters":{..},"gauges":{..},"histograms":{..}}]. *)

val to_text : unit -> string
(** One [name value] line per instrument, sorted — the dump format for
    quick greps. *)

val write : string -> unit
(** Write [to_json ()] to a file. *)
