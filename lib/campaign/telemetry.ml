(* The cross-process observability channel.  A worker cannot hand its
   in-memory Trace/Metrics state back to the supervisor — it is a
   fork/exec'd OS process — so it serializes the collected state into a
   sidecar file next to its checkpoint, and the supervisor absorbs the
   sidecar after the exit is verified.  The file carries the worker's
   epoch (absolute unix time of its ts_us = 0) so the supervisor can
   shift span timestamps onto its own timebase: two processes agree on
   wall-clock time, not on when each loaded the library.  Discipline and
   failure model are exactly Checkpoint's: temp + fsync + rename on
   write, and a torn or mislabeled sidecar is treated as absent — the
   campaign result never depends on telemetry surviving. *)

module J = Smt_obs.Obs_json
module Trace = Smt_obs.Trace
module Metrics = Smt_obs.Metrics

let schema_version = 1

type t = {
  tl_version : int;
  tl_job : string;
  tl_attempt : int;
  tl_epoch_unix_s : float;
  tl_events : Trace.event list;
  tl_metrics : Metrics.portable;
}

let suffix = ".telemetry.json"
let path ~dir id = Filename.concat dir (id ^ suffix)

let capture ~job ~attempt =
  {
    tl_version = schema_version;
    tl_job = job;
    tl_attempt = attempt;
    tl_epoch_unix_s = Trace.epoch_unix_s ();
    tl_events = Trace.events ();
    tl_metrics = Metrics.export ();
  }

let to_json t =
  J.obj
    [
      ("schema_version", string_of_int t.tl_version);
      ("job", J.str t.tl_job);
      ("attempt", string_of_int t.tl_attempt);
      ("epoch_unix_s", J.num_exact t.tl_epoch_unix_s);
      ("events", J.arr (List.map Trace.event_json t.tl_events));
      ("metrics", Metrics.portable_json t.tl_metrics);
    ]

let write ~dir t =
  let final = path ~dir t.tl_job in
  let tmp = Printf.sprintf "%s.tmp.%d" final (Unix.getpid ()) in
  let fd = Unix.openfile tmp [ Unix.O_CREAT; Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let b = Bytes.of_string (to_json t ^ "\n") in
      let n = Unix.write fd b 0 (Bytes.length b) in
      if n <> Bytes.length b then failwith "telemetry: short write";
      Unix.fsync fd);
  Sys.rename tmp final

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let of_json doc =
  let* version =
    match Option.bind (J.member "schema_version" doc) J.to_num with
    | Some v -> Ok (int_of_float v)
    | None -> Error "telemetry: missing schema_version"
  in
  if version <> schema_version then
    Error (Printf.sprintf "telemetry: schema version %d, expected %d" version schema_version)
  else
    let* job =
      match Option.bind (J.member "job" doc) J.to_str with
      | Some j -> Ok j
      | None -> Error "telemetry: missing job"
    in
    let* attempt =
      match Option.bind (J.member "attempt" doc) J.to_num with
      | Some a -> Ok (int_of_float a)
      | None -> Error "telemetry: missing attempt"
    in
    let* epoch =
      match Option.bind (J.member "epoch_unix_s" doc) J.to_num with
      | Some e -> Ok e
      | None -> Error "telemetry: missing epoch_unix_s"
    in
    let* events =
      match J.member "events" doc with
      | Some (J.Arr items) -> map_result Trace.event_of_json items
      | Some _ -> Error "telemetry: events is not an array"
      | None -> Ok []
    in
    let* metrics =
      match J.member "metrics" doc with
      | Some m -> Metrics.portable_of_json m
      | None -> Ok { Metrics.p_counters = []; p_gauges = []; p_hists = [] }
    in
    Ok
      {
        tl_version = version;
        tl_job = job;
        tl_attempt = attempt;
        tl_epoch_unix_s = epoch;
        tl_events = events;
        tl_metrics = metrics;
      }

let load file = Result.bind (J.of_file file) of_json

let shift_events ~from_epoch ~to_epoch ~attempt evs =
  let shift_us = (from_epoch -. to_epoch) *. 1e6 in
  let attempt_arg = ("attempt", string_of_int attempt) in
  List.map
    (fun ev ->
      {
        ev with
        Trace.ev_ts_us = ev.Trace.ev_ts_us +. shift_us;
        Trace.ev_args = attempt_arg :: List.remove_assoc "attempt" ev.Trace.ev_args;
      })
    evs

let absorb ?(tid = Trace.main_tid) t =
  if Trace.enabled () then
    Trace.absorb ~tid
      (shift_events ~from_epoch:t.tl_epoch_unix_s ~to_epoch:(Trace.epoch_unix_s ())
         ~attempt:t.tl_attempt t.tl_events);
  Metrics.absorb t.tl_metrics
