(** Process-global registry of named counters and fixed-bucket
    histograms.

    Registration is idempotent: [counter "x"] returns the same counter every
    time, so hot-path modules bind their instruments once at module
    initialization and pay one integer/float store per event afterwards.
    Instruments never affect computation results — they only observe — so a
    run with the registry untouched is bit-identical to one that dumps it.

    {b Domain safety.}  Instrument {e definitions} (names) are global and
    mutex-guarded, so concurrent registration from worker domains is safe.
    Instrument {e values} are per-domain: [incr]/[observe] touch only
    the calling domain's store and never contend, and the readers
    ([counters], [to_json], ...) report the calling domain's
    values.  Parallel jobs hand their effects back to the caller through
    {!collect} and {!merge}; merging job stores in input order reproduces
    the sequential totals exactly — counters and histograms are additive
    (order-independent).

    Naming convention: [subsystem.thing_unit] (e.g. [sta.arrival_evals],
    [eco.buffers_added], [sta.update_evals]). *)

type counter
type histogram

val counter : string -> counter
(** Monotonically increasing integer count. *)

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val histogram : ?buckets:float list -> string -> histogram
(** Fixed upper-bound buckets (an implicit [+inf] bucket is always added).
    The bucket list of the first registration wins.  Default buckets suit
    millisecond durations: powers of ~3 from 0.1 ms to 10 s. *)

val observe : histogram -> float -> unit

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

val counters : unit -> (string * int) list
(** Current value of every registered counter, sorted by name.  Counters
    are the deterministic "work done" instruments (arrival evaluations,
    placement iterations, ...), which is what QoR snapshots diff per
    workload — histograms carry distributions and are excluded. *)

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
    histogram buckets/sums add. *)

val to_json : unit -> string
(** The whole registry as one JSON object:
    [{"counters":{..},"histograms":{..}}], each sorted by name.  A
    histogram reads [{"count","sum","p50","p90","p99","buckets"}], its
    quantiles estimated as {!quantile_of_hits} does ([null] while
    empty). *)

val write : string -> unit
(** Write [to_json ()] to a file. *)
