(** Per-stage resource profiling: the GC and heap cost of an interval.

    A profiled interval samples [Gc.quick_stat] at open ({!mark}) and
    close ({!record}) and returns the difference — minor/major/promoted
    words, collection counts, compactions, and the peak heap observed.
    [quick_stat] reads the calling domain's counters without walking the
    heap, so profiling is cheap enough to stay enabled across whole
    benchmark sweeps; with the switch off (the default), [mark] and
    [record] are no-ops and runs are bit-identical to an unprofiled
    build.

    Nothing is accumulated here: the caller owns each delta.  [Flow]
    keeps it as the stage's [stage_prof], adds it to the stage's trace
    span as args, and the workload record ({!Snapshot.workload}'s
    [w_prof]) carries it into ledgers and checkpoints.

    {b Determinism.}  OCaml allocation is deterministic for a
    deterministic program, so minor-word attribution is reproducible
    run-to-run; collection counts and promoted words depend on minor-heap
    state at interval entry and may drift a little between job
    placements.  Nothing here feeds QoR comparison — profile numbers are
    attribution, not gate inputs. *)

type stats = {
  minor_words : float;
  promoted_words : float;
  major_words : float;  (** includes promotions, as in [Gc.stat] *)
  minor_collections : int;
  major_collections : int;
  compactions : int;
  top_heap_words : int;  (** peak heap at interval close (words) *)
}

val enable : unit -> unit
val disable : unit -> unit
(** The switch is global (atomic): one [--profile] governs every domain. *)

type mark
(** An open-interval sample.  Opaque; [None]-like when profiling is off. *)

val mark : unit -> mark
(** Sample the current GC counters (no-op value when disabled). *)

val record : mark -> stats option
(** The cost since [m]; [None] when profiling was off at [mark] time. *)

val stats_json : stats -> string
val stats_of_json : stats Obs_json.Decode.t
