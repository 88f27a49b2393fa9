module J = Smt_obs.Obs_json
module Snapshot = Smt_obs.Snapshot

let schema_version = 1

type status = Done | Failed of string

type t = {
  cp_version : int;
  cp_job : Job.t;
  cp_status : status;
  cp_attempt : int;
  cp_time : float;
  cp_duration_s : float;
  cp_workload : Snapshot.workload option;
}

let suffix = ".ckpt.json"
let path ~dir job = Filename.concat dir (Job.id job ^ suffix)

let to_json cp =
  let fields =
    [
      ("schema_version", string_of_int cp.cp_version);
      ("job", Job.to_json cp.cp_job);
      ( "status",
        match cp.cp_status with Done -> J.str "done" | Failed _ -> J.str "failed" );
    ]
    @ (match cp.cp_status with
      | Done -> []
      | Failed e -> [ ("error", J.str e) ])
    @ [
        ("attempt", string_of_int cp.cp_attempt);
        ("time", J.num_exact cp.cp_time);
        ("duration_s", J.num_exact cp.cp_duration_s);
      ]
    @
    match cp.cp_workload with
    | Some w -> [ ("workload", Snapshot.workload_json w) ]
    | None -> []
  in
  J.obj fields

(* After a crash at any instruction the final path holds either the
   previous checkpoint or the complete new one, never a prefix. *)
let write ~dir cp = J.write_durable (path ~dir cp.cp_job) (to_json cp ^ "\n")

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let of_json doc =
  let num_of field =
    match J.member field doc with
    | Some v -> (
      match J.to_num v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "checkpoint: field %S is not a number" field))
    | None -> Error (Printf.sprintf "checkpoint: missing field %S" field)
  in
  let* version = num_of "schema_version" in
  if int_of_float version <> schema_version then
    Error
      (Printf.sprintf "checkpoint: schema version %d, expected %d"
         (int_of_float version) schema_version)
  else
    let* job =
      match J.member "job" doc with
      | Some j -> Job.of_json j
      | None -> Error "checkpoint: missing field \"job\""
    in
    let* status =
      match J.member "status" doc with
      | Some (J.Str "done") -> Ok Done
      | Some (J.Str "failed") ->
        let err =
          match J.member "error" doc with
          | Some (J.Str e) -> e
          | _ -> "unknown failure"
        in
        Ok (Failed err)
      | Some _ -> Error "checkpoint: unknown status"
      | None -> Error "checkpoint: missing field \"status\""
    in
    let* attempt = num_of "attempt" in
    let* time = num_of "time" in
    (* Fields added after the first release of schema 1 read back with
       neutral defaults, so checkpoints written by an older binary still
       load (forward additions, not a version bump). *)
    let duration_s =
      match Option.bind (J.member "duration_s" doc) J.to_num with
      | Some d -> d
      | None -> 0.
    in
    let* workload =
      match (status, J.member "workload" doc) with
      | Done, Some w ->
        let* w = Snapshot.workload_of_json w in
        Ok (Some w)
      | Done, None -> Error "checkpoint: done without workload"
      | Failed _, _ -> Ok None
    in
    Ok
      {
        cp_version = int_of_float version;
        cp_job = job;
        cp_status = status;
        cp_attempt = int_of_float attempt;
        cp_time = time;
        cp_duration_s = duration_s;
        cp_workload = workload;
      }

let load file = Result.bind (J.of_file file) of_json

type scan_result = {
  sc_checkpoints : (string * t) list;
  sc_unreadable : int;
}

let scan dir =
  match Sys.readdir dir with
  | exception Sys_error e -> Error e
  | entries ->
    let files =
      List.filter
        (fun f -> Filename.check_suffix f suffix)
        (Array.to_list entries)
    in
    let checkpoints = ref [] and unreadable = ref 0 in
    List.iter
      (fun f ->
        let expected_id = Filename.chop_suffix f suffix in
        match load (Filename.concat dir f) with
        | Ok cp when Job.id cp.cp_job = expected_id ->
          checkpoints := (expected_id, cp) :: !checkpoints
        | Ok _ | Error _ -> incr unreadable)
      files;
    Ok
      {
        sc_checkpoints =
          List.sort (fun (a, _) (b, _) -> compare a b) !checkpoints;
        sc_unreadable = !unreadable;
      }
