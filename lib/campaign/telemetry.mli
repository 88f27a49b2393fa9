(** Worker-to-supervisor telemetry sidecars: the cross-process
    counterpart of {!Smt_obs.Trace.collect}/[absorb].

    A worker process serializes its collected trace spans and metrics
    store into [<job-id>.telemetry.json] next to its checkpoint; the
    supervisor absorbs the sidecar after each verified exit, remapping
    spans onto the shard's stable tid and merging metrics with the
    in-process semantics.  The result is one Chrome trace and one
    metrics registry for the whole campaign, assembled from as many OS
    processes as the matrix had jobs.  Per-stage GC attribution needs no
    field of its own: a profiled worker's stage spans carry it as args,
    and its checkpoint's workload carries it as [w_prof].

    {b Clock normalization.}  Each sidecar is stamped with the absolute
    unix time of its writer's [ts_us = 0] ({!Smt_obs.Trace.epoch_unix_s});
    {!absorb} shifts every span by the difference between the writer's
    epoch and the reader's, so spans from processes started minutes
    apart land at their true wall-clock positions on one timeline.
    Under [SMT_CLOCK] both epochs are the pinned clock and the shift is
    exactly zero — deterministic for tests.

    {b Failure model.}  Same as {!Checkpoint}: atomic write (temp +
    fsync + rename), and a torn, truncated, or unparseable sidecar loads
    as [Error] and is simply skipped — telemetry is an overlay; losing a
    sidecar never changes a campaign's merged snapshot. *)

val schema_version : int

type t = {
  tl_version : int;
  tl_job : string;  (** the writing job's id *)
  tl_attempt : int;  (** 1-based attempt that produced this sidecar *)
  tl_epoch_unix_s : float;
      (** absolute unix time of [ts_us = 0] in the writing process *)
  tl_events : Smt_obs.Trace.event list;
  tl_metrics : Smt_obs.Metrics.portable;
}

val suffix : string
(** [".telemetry.json"]. *)

val path : dir:string -> string -> string
(** [path ~dir id] — [<dir>/<id>.telemetry.json]. *)

val capture : job:string -> attempt:int -> t
(** Snapshot the calling process's current trace buffer and metrics
    store into a sidecar value. *)

val write : dir:string -> t -> unit
(** Atomic: temp + fsync + rename, overwriting any earlier attempt's
    sidecar for the same job. *)

val load : string -> (t, string) result

val to_json : t -> string
val of_json : Smt_obs.Obs_json.t -> (t, string) result

val shift_events :
  from_epoch:float ->
  to_epoch:float ->
  attempt:int ->
  Smt_obs.Trace.event list ->
  Smt_obs.Trace.event list
(** Move events recorded against [from_epoch] onto a timeline whose zero
    is [to_epoch], and stamp each event's args with the attempt number.
    Pure — exposed for tests; {!absorb} is this plus the actual merge. *)

val absorb : ?tid:int -> t -> unit
(** Replay a sidecar onto the calling process: spans are epoch-shifted,
    stamped with the attempt, retagged to [tid] (default
    {!Smt_obs.Trace.main_tid}), and appended to the trace buffer (only
    while tracing is enabled); metrics merge by name with
    {!Smt_obs.Metrics.absorb}.  Absorbing the
    same sidecar twice double-counts — callers dedupe by
    [(tl_job, tl_attempt)]. *)
