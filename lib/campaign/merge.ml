module Snapshot = Smt_obs.Snapshot
module J = Smt_obs.Obs_json

type state = Sdone | Sfailed of string | Smissing

type job_state = {
  js_job : Job.t;
  js_state : state;
  js_attempt : int;
  js_duration_s : float;
}

type t = {
  mg_tag : string;
  mg_snapshot : Snapshot.t;
  mg_workloads : Snapshot.workload list;
  mg_states : job_state list;
  mg_done : int;
  mg_failed : int;
  mg_missing : int;
  mg_unreadable : string list;
}

(* Wall-clock and GC attribution are the worker-recorded fields that
   differ run to run; everything else in a workload is a deterministic
   function of the job. *)
let strip_measurements (w : Snapshot.workload) =
  { w with Snapshot.w_stage_ms = []; w_prof = [] }

let of_dir dir =
  match Manifest.load dir with
  | Error e -> Error (Printf.sprintf "cannot load campaign manifest: %s" e)
  | Ok man -> (
    match Checkpoint.scan dir with
    | Error e -> Error (Printf.sprintf "cannot scan checkpoints: %s" e)
    | Ok { Checkpoint.sc_checkpoints; sc_unreadable } ->
      let states =
        List.map
          (fun job ->
            match List.assoc_opt (Job.id job) sc_checkpoints with
            | Some (cp : Checkpoint.t) -> (
              match cp.Checkpoint.cp_status with
              | Checkpoint.Done ->
                {
                  js_job = job;
                  js_state = Sdone;
                  js_attempt = cp.Checkpoint.cp_attempt;
                  js_duration_s = cp.Checkpoint.cp_duration_s;
                }
              | Checkpoint.Failed e ->
                {
                  js_job = job;
                  js_state = Sfailed e;
                  js_attempt = cp.Checkpoint.cp_attempt;
                  js_duration_s = cp.Checkpoint.cp_duration_s;
                })
            | None ->
              { js_job = job; js_state = Smissing; js_attempt = 0; js_duration_s = 0. })
          (Manifest.jobs man)
      in
      (* The ledger form keeps what the snapshot strips: per-stage
         wall-clock and the worker's GC attribution are exactly what
         [runs show] reads back.  Sorted like the snapshot so ledger
         records are independent of scan order. *)
      let done_workloads =
        List.filter_map
          (fun js ->
            match js.js_state with
            | Sdone ->
              Option.bind
                (List.assoc_opt (Job.id js.js_job) sc_checkpoints)
                (fun cp -> cp.Checkpoint.cp_workload)
            | _ -> None)
          states
        |> List.sort (fun a b -> compare a.Snapshot.w_name b.Snapshot.w_name)
      in
      let count p = List.length (List.filter p states) in
      Ok
        {
          mg_tag = man.Manifest.m_tag;
          mg_snapshot =
            Snapshot.make ~tag:man.Manifest.m_tag
              (List.map strip_measurements done_workloads);
          mg_workloads = done_workloads;
          mg_states = states;
          mg_done = count (fun js -> js.js_state = Sdone);
          mg_failed =
            count (fun js -> match js.js_state with Sfailed _ -> true | _ -> false);
          mg_missing = count (fun js -> js.js_state = Smissing);
          mg_unreadable = sc_unreadable;
        })

let complete m = m.mg_failed = 0 && m.mg_missing = 0

let todo m =
  List.filter_map
    (fun js -> if js.js_state = Sdone then None else Some js.js_job)
    m.mg_states

let workloads m = m.mg_workloads

type eta = { avg_job_s : float; remaining : int; eta_s : float }

(* Checkpoints without a duration (older binaries) do not count toward
   the mean. *)
let eta m =
  let durations =
    List.filter_map
      (fun js ->
        if js.js_state = Sdone && js.js_duration_s > 0. then Some js.js_duration_s
        else None)
      m.mg_states
  in
  let avg_job_s =
    match durations with
    | [] -> 0.
    | ds -> List.fold_left ( +. ) 0. ds /. float_of_int (List.length ds)
  in
  { avg_job_s; remaining = m.mg_missing; eta_s = avg_job_s *. float_of_int m.mg_missing }

(* One row per matrix job: id, state, attempts, detail (the duration of
   a done job, the last error of a failed one). *)
let status_rows m =
  List.map
    (fun js ->
      let state, detail =
        match js.js_state with
        | Sdone -> ("done", Printf.sprintf "%.2fs" js.js_duration_s)
        | Sfailed e -> ("failed", e)
        | Smissing -> ("missing", "")
      in
      (Job.id js.js_job, state, js.js_attempt, detail))
    m.mg_states

let render_status m =
  let header = [ "Job"; "State"; "Attempts"; "Detail" ] in
  let rows =
    List.map
      (fun (id, state, attempt, detail) ->
        [ id; state; (if attempt = 0 then "-" else string_of_int attempt); detail ])
      (status_rows m)
  in
  let summary =
    Printf.sprintf "campaign %s: %d/%d done, %d failed, %d missing%s" m.mg_tag
      m.mg_done
      (List.length m.mg_states)
      m.mg_failed m.mg_missing
      (match List.length m.mg_unreadable with
      | 0 -> ""
      | n ->
        Printf.sprintf " (%d unreadable checkpoint%s treated as missing)" n
          (if n = 1 then "" else "s"))
    ^ String.concat "" (List.map (fun e -> "\n  " ^ e) m.mg_unreadable)
  in
  let e = eta m in
  let eta_line =
    if e.remaining = 0 then ""
    else if e.avg_job_s = 0. then "\nno completed jobs yet; ETA unknown"
    else
      Printf.sprintf "\n~%.1fs of shard compute remaining (%d jobs x %.2fs avg)" e.eta_s
        e.remaining e.avg_job_s
  in
  Smt_util.Text_table.render ~header rows ^ "\n" ^ summary ^ eta_line

let status_json m =
  let e = eta m in
  J.obj
    [
      ("tag", J.str m.mg_tag);
      ("total", string_of_int (List.length m.mg_states));
      ("done", string_of_int m.mg_done);
      ("failed", string_of_int m.mg_failed);
      ("missing", string_of_int m.mg_missing);
      ("unreadable", string_of_int (List.length m.mg_unreadable));
      ("complete", J.boolean (complete m));
      ("avg_job_s", J.num e.avg_job_s);
      ("remaining", string_of_int e.remaining);
      ("eta_s", J.num e.eta_s);
      ( "jobs",
        J.arr
          (List.map
             (fun (id, state, attempt, detail) ->
               J.obj
                 [
                   ("id", J.str id);
                   ("state", J.str state);
                   ("attempt", string_of_int attempt);
                   ("detail", J.str detail);
                 ])
             (status_rows m)) );
    ]
