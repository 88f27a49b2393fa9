(** Deterministic reassembly of a campaign's checkpoints into one QoR
    snapshot, plus the coverage report behind [campaign status].

    The merged snapshot contains one workload per [Done] checkpoint,
    {b byte-deterministic} regardless of shard count, scheduling, chaos
    kills, or how many resume cycles produced the checkpoints:

    - workloads are keyed by job name and sorted by {!Smt_obs.Snapshot.make}
      (scan order never leaks through);
    - per-stage wall-clock ([stage_ms]) and GC attribution ([prof]) are
      stripped — they are the nondeterministic fields a worker records,
      never gate inputs by the snapshot contract, and still available in
      the individual checkpoints and in [mg_workloads];
    - QoR fields and work counters come from the flow, which is a
      deterministic function of the job coordinates, and floats
      round-trip exactly ([num_exact]).

    So an interrupted-and-resumed campaign merges to exactly the bytes of
    an uninterrupted one — the property the chaos tests pin down. *)

type state =
  | Sdone
  | Sfailed of string  (** quarantined or aborted, with the last error *)
  | Smissing  (** no (readable) checkpoint: never ran, in-flight, or torn *)

type job_state = {
  js_job : Job.t;
  js_state : state;
  js_attempt : int;  (** attempts recorded in the checkpoint; 0 when missing *)
  js_duration_s : float;
      (** wall seconds of the producing attempt (checkpoint envelope);
          0 when missing or written by a pre-duration binary.  Feeds
          the status view's ETA. *)
}

type t = {
  mg_tag : string;  (** from the manifest *)
  mg_snapshot : Smt_obs.Snapshot.t;  (** [Done] workloads only *)
  mg_workloads : Smt_obs.Snapshot.workload list;
      (** [Done] workloads as the workers recorded them, sorted by
          workload name: unlike [mg_snapshot] these keep per-stage
          wall-clock and the worker's per-stage GC attribution — data
          that never enters the byte-compared snapshot *)
  mg_states : job_state list;  (** canonical matrix order *)
  mg_done : int;
  mg_failed : int;
  mg_missing : int;
  mg_unreadable : string list;
      (** the located error of each damaged checkpoint file the scan
          tolerated (see {!Checkpoint.scan_result}) *)
}

val of_dir : string -> (t, string) result
(** Load the manifest and scan the checkpoints of a campaign directory.
    Checkpoints for jobs outside the manifest's matrix are ignored. *)

val complete : t -> bool
(** Every matrix job has a [Done] checkpoint. *)

val todo : t -> Job.t list
(** The jobs [campaign run]/[resume] still have to run: every matrix job
    without a [Done] checkpoint (failed, quarantined, missing or torn),
    in matrix order. *)

val workloads : t -> Smt_obs.Snapshot.workload list
(** [mg_workloads]: the merged workloads with real per-stage wall-clock
    and GC attribution from the worker checkpoints — what [campaign run]
    appends to the run ledger, so [runs show] works on campaign records
    exactly as on single-process runs. *)

val render_status : t -> string
(** The campaign status view, read from checkpoints alone: a per-job
    table (state done / failed / missing, attempts, and the duration of a
    done job or the error of a failed one), the summary line
    ["campaign <tag>: <d>/<n> done, <f> failed, <m> missing"], and, while
    jobs are missing, an ETA: the missing jobs times the mean
    [duration_s] of the done checkpoints that record one — shard compute,
    not wall time, since the shard count is not in the directory. *)

val status_json : t -> string
(** The same view as one JSON object: the counts, [complete], the ETA
    inputs and result ([avg_job_s], [remaining], [eta_s]) and one
    [{id, state, attempt, detail}] object per job. *)
