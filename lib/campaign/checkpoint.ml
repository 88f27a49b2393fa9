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

let make ~job ~attempt ~duration_s outcome =
  {
    cp_version = schema_version;
    cp_job = job;
    cp_status = (match outcome with Ok _ -> Done | Error e -> Failed e);
    cp_attempt = attempt;
    cp_time = Smt_obs.Ledger.clock ();
    cp_duration_s = duration_s;
    cp_workload = Result.to_option outcome;
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

let of_json v =
  let open J.Decode in
  let status s =
    match string s with
    | ("done" | "failed") as st -> st
    | st -> fail (Printf.sprintf "unknown status %S" st)
  in
  let cp_version = field "schema_version" (schema schema_version) v in
  let cp_job = field "job" Job.of_json v in
  let cp_status, cp_workload =
    match field "status" status v with
    | "done" -> (Done, Some (field "workload" Snapshot.workload_of_json v))
    | _ -> (Failed (Option.value ~default:"unknown failure" (field_opt "error" string v)), None)
  in
  {
    cp_version;
    cp_job;
    cp_status;
    cp_attempt = field "attempt" int v;
    cp_time = field "time" number v;
    (* Added after the first release of schema 1: older checkpoints
       load with a neutral default (a forward addition, not a bump). *)
    cp_duration_s = Option.value ~default:0. (field_opt "duration_s" number v);
    cp_workload;
  }

let load file = J.Decode.decode_file of_json file

type scan_result = {
  sc_checkpoints : (string * t) list;
  sc_unreadable : string list;
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
    let checkpoints = ref [] and unreadable = ref [] in
    List.iter
      (fun f ->
        let expected_id = Filename.chop_suffix f suffix in
        (* errors name the file, not the directory the status is about *)
        let read = J.read_file (Filename.concat dir f) in
        match Result.bind read (J.Decode.decode_string ~source:f of_json) with
        | Ok cp when Job.id cp.cp_job = expected_id ->
          checkpoints := (expected_id, cp) :: !checkpoints
        | Ok cp ->
          unreadable :=
            Printf.sprintf "%s: $.job: holds job %s" f (Job.id cp.cp_job) :: !unreadable
        | Error e -> unreadable := e :: !unreadable)
      (List.sort compare files);
    Ok
      {
        sc_checkpoints =
          List.sort (fun (a, _) (b, _) -> compare a b) !checkpoints;
        sc_unreadable = List.rev !unreadable;
      }
