(** The campaign's identity file, [campaign.json] in the checkpoint
    directory: the matrix coordinates and snapshot tag a campaign was
    started with.

    [resume], [status], and [merge] read the manifest instead of trusting
    re-typed command lines, so the job set — and therefore which
    checkpoints count as complete coverage — cannot drift between resume
    cycles.  Supervision parameters (shard count, timeouts, chaos) are
    deliberately {e not} recorded: they affect how jobs are driven, never
    what a job computes, and may differ per invocation (a chaos run is
    resumed with chaos off). *)

val schema_version : int

type t = {
  m_version : int;
  m_tag : string;  (** tag of the merged snapshot *)
  m_circuits : string list;
  m_techniques : string list;
  m_guards : string list;
  m_seeds : int list;
}

val make :
  tag:string ->
  circuits:string list ->
  techniques:string list ->
  guards:string list ->
  seeds:int list ->
  t

val jobs : t -> Job.t list
(** The full matrix in canonical order ({!Job.matrix}). *)

val path : string -> string
(** [<dir>/campaign.json]. *)

val write : string -> t -> unit
(** Durable, like checkpoints: {!Smt_obs.Obs_json.write_durable} (temp +
    fsync + rename).  [resume] cannot work without the manifest. *)

val load : string -> (t, string) result
(** Load from a campaign directory.  A bad file is an [Error] that names
    its path and the JSON location, e.g.
    ["<dir>/campaign.json: $.seeds[1]: not an integer"]. *)
