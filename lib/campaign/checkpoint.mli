(** Per-job result checkpoints: one schema-versioned JSON file per
    completed (or definitively failed) job, the unit of campaign
    crash-tolerance.

    {b Atomicity.}  [write] stages the document in a sibling temp file,
    fsyncs, and renames it into place, so a reader never observes a
    half-written checkpoint: a shard SIGKILLed mid-write leaves either no
    checkpoint or a stray temp file, both of which [scan] treats as "job
    not done".  A checkpoint file that exists but does not parse (e.g. a
    tail truncated by a dying filesystem) is likewise counted and treated
    as absent — resume re-runs the job rather than crashing or trusting a
    torn record.

    {b Payload.}  A [Done] checkpoint embeds the job's result as an
    {!Smt_obs.Snapshot.workload} (the exact object snapshots and ledger
    records carry, including a profiled worker's per-stage GC
    attribution in [w_prof]), so the merge step only reassembles
    payloads it never recomputes.  The envelope (attempt count,
    timestamp, duration) is deliberately excluded from merged snapshots,
    as are the workload's wall-clock and GC fields: they record how the
    shard got there, which may legitimately differ between an
    interrupted and an uninterrupted campaign.  A checkpoint in the
    older layout, with a top-level ["prof"] beside ["workload"], still
    loads; that field is ignored. *)

val schema_version : int

type status =
  | Done
  | Failed of string  (** terminal failure: quarantined, or a flow abort *)

type t = {
  cp_version : int;
  cp_job : Job.t;
  cp_status : status;
  cp_attempt : int;  (** 1-based attempt that produced this checkpoint *)
  cp_time : float;  (** unix seconds, injected (respects [SMT_CLOCK]) *)
  cp_duration_s : float;
      (** wall seconds the producing attempt ran; [0.] in checkpoints
          written before the field existed.  Envelope data (feeds the
          status view's ETA, never merged snapshots). *)
  cp_workload : Smt_obs.Snapshot.workload option;  (** [Some] iff [Done] *)
}

val suffix : string
(** [".ckpt.json"] — what {!scan} recognizes, and what everything else in
    a campaign directory (manifest, logs, staging temps) must not end in. *)

val path : dir:string -> Job.t -> string
(** [<dir>/<job-id>.ckpt.json]. *)

val write : dir:string -> t -> unit
(** Atomic: {!Smt_obs.Obs_json.write_durable} (temp file + fsync +
    rename).  Overwrites any previous checkpoint of the same job (a retry
    superseding a failure). *)

val load : string -> (t, string) result

type scan_result = {
  sc_checkpoints : (string * t) list;
      (** job id -> checkpoint, sorted by job id; only well-formed files
          whose embedded job matches their filename *)
  sc_unreadable : int;
      (** [.ckpt.json] files that were torn, truncated, or mislabeled —
          treated as if the job never completed *)
}

val scan : string -> (scan_result, string) result
(** Scan a checkpoint directory.  [Error] only for directory-level I/O
    failure; per-file damage is tolerated and counted. *)
