(** One unit of campaign work: a single flow invocation, fully identified
    by the (circuit, technique, guard, seed) coordinates of the campaign
    matrix.

    A job is what one worker process runs and what one checkpoint file
    records.  Its {!id} is filename-safe and injective over the matrix
    coordinates, so the checkpoint directory doubles as the authoritative
    set of completed work; its {!name} is the workload name the job's
    result carries in snapshots and ledger records
    (["<circuit>/<technique>/<guard>/s<seed>"], extending the established
    ["<circuit>/<technique>"] convention with the remaining
    coordinates). *)

type t = {
  jb_circuit : string;
  jb_technique : string;  (** CLI slug: ["dual"] | ["conventional"] | ["improved"] *)
  jb_guard : string;  (** ["off"] | ["warn"] | ["repair"] | ["strict"] *)
  jb_seed : int;  (** the flow seed, not the supervisor's *)
}

val id : t -> string
(** Filename-safe identity, e.g. ["circuit_a~improved~off~s1"]. *)

val name : t -> string
(** Workload name, e.g. ["circuit_a/improved/off/s1"]. *)

val matrix :
  circuits:string list ->
  techniques:string list ->
  guards:string list ->
  seeds:int list ->
  t list
(** The full cross product in canonical order: circuits outermost, then
    techniques, guards, seeds — the order [run]/[status]/[merge] list jobs
    in, independent of how shards were scheduled. *)

val to_json : t -> string
val of_json : t Smt_obs.Obs_json.Decode.t
