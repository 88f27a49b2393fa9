(* Append-only JSONL run store.  One line per completed invocation; writes
   are single [write]s to an O_APPEND descriptor under an advisory lock on
   a sibling [.lock] file, so concurrent flows (domains or processes) can
   share one ledger without interleaving partial lines.  The lock is an
   atomically created file, broken by age when its holder died without
   releasing it (see [with_lock]).  The reader is deliberately forgiving:
   a line that does not parse — typically the truncated tail of a run that
   died mid-append — is counted and skipped, never fatal. *)

let schema_version = 1

type record = {
  r_version : int;
  r_id : string;  (* 12-hex digest of the canonical payload *)
  r_time : float;  (* unix seconds, injected by the caller *)
  r_tool : string;
  r_kind : string;  (* "run" | "bench" | "lint" | "campaign" *)
  r_tag : string;
  r_circuit : string;
  r_technique : string;
  r_guard : string;
  r_jobs : int;
  r_args_hash : string;
  r_workloads : Snapshot.workload list;
}

let default_path () = Sys.getenv_opt "SMT_LEDGER"

let clock () =
  match Sys.getenv_opt "SMT_CLOCK" with
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some t -> t
    | None -> Unix.gettimeofday ())
  | None -> Unix.gettimeofday ()

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let payload_json r =
  Obs_json.obj
    [
      ("schema_version", string_of_int r.r_version);
      ("time", Obs_json.num_exact r.r_time);
      ("tool", Obs_json.str r.r_tool);
      ("kind", Obs_json.str r.r_kind);
      ("tag", Obs_json.str r.r_tag);
      ("circuit", Obs_json.str r.r_circuit);
      ("technique", Obs_json.str r.r_technique);
      ("guard", Obs_json.str r.r_guard);
      ("jobs", string_of_int r.r_jobs);
      ("args_hash", Obs_json.str r.r_args_hash);
      ("workloads", Obs_json.arr (List.map Snapshot.workload_json r.r_workloads));
    ]

let to_json r =
  let p = payload_json r in
  "{\"id\":" ^ Obs_json.str r.r_id ^ "," ^ String.sub p 1 (String.length p - 1)

let short_digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let make ?(time = clock ()) ?(tool = "smt_flow") ?(tag = "") ?(circuit = "-")
    ?(technique = "-") ?(guard = "off") ?(jobs = 1) ?(args = []) ~kind workloads =
  let r =
    {
      r_version = schema_version;
      r_id = "";
      r_time = time;
      r_tool = tool;
      r_kind = kind;
      r_tag = tag;
      r_circuit = circuit;
      r_technique = technique;
      r_guard = guard;
      r_jobs = jobs;
      r_args_hash = short_digest (String.concat "\x00" args);
      r_workloads = workloads;
    }
  in
  { r with r_id = short_digest (payload_json r) }

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let str_of name doc =
  match Obs_json.member name doc with
  | Some v -> (
    match Obs_json.to_str v with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "ledger: field %S is not a string" name))
  | None -> Error (Printf.sprintf "ledger: missing field %S" name)

let num_of name doc =
  match Obs_json.member name doc with
  | Some v -> (
    match Obs_json.to_num v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "ledger: field %S is not a number" name))
  | None -> Error (Printf.sprintf "ledger: missing field %S" name)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let of_json doc =
  let* version = num_of "schema_version" doc in
  let* id = str_of "id" doc in
  let* time = num_of "time" doc in
  let* tool = str_of "tool" doc in
  let* kind = str_of "kind" doc in
  let* tag = str_of "tag" doc in
  let* circuit = str_of "circuit" doc in
  let* technique = str_of "technique" doc in
  let* guard = str_of "guard" doc in
  let* jobs = num_of "jobs" doc in
  let* args_hash = str_of "args_hash" doc in
  let* workloads =
    match Obs_json.member "workloads" doc with
    | Some (Obs_json.Arr items) -> map_result Snapshot.workload_of_json items
    | Some _ -> Error "ledger: workloads is not an array"
    | None -> Error "ledger: missing field \"workloads\""
  in
  Ok
    {
      r_version = int_of_float version;
      r_id = id;
      r_time = time;
      r_tool = tool;
      r_kind = kind;
      r_tag = tag;
      r_circuit = circuit;
      r_technique = technique;
      r_guard = guard;
      r_jobs = int_of_float jobs;
      r_args_hash = args_hash;
      r_workloads = workloads;
    }

let of_line line =
  match Obs_json.parse line with Ok doc -> of_json doc | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* File I/O                                                            *)
(* ------------------------------------------------------------------ *)

(* Appends serialize on an atomically created sibling [.lock] file, which
   works across processes and filesystems but can be orphaned: a holder
   SIGKILLed between create and unlink leaves the file behind, and
   without recovery every later append would spin forever.  Contenders
   therefore break locks older than a staleness threshold — generous next
   to the sub-millisecond hold time of an append — with a warning.  The
   known (documented) race: a holder stalled past the threshold can have
   its lock broken under it; pick SMT_LOCK_STALE_MS above the longest
   plausible critical section (the default is 4 orders of magnitude
   above). *)
let default_stale_lock_s = 10.

let stale_lock_s () =
  match Sys.getenv_opt "SMT_LOCK_STALE_MS" with
  | Some s -> (
    match float_of_string_opt (String.trim s) with
    | Some ms when ms > 0. -> ms /. 1000.
    | _ -> default_stale_lock_s)
  | None -> default_stale_lock_s

let with_lock path f =
  let lock = path ^ ".lock" in
  let rec acquire delay =
    match Unix.openfile lock [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644 with
    | fd -> fd
    | exception Unix.Unix_error (Unix.EEXIST, _, _) ->
      let broke =
        match Unix.stat lock with
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> true (* just released *)
        | st ->
          let age = Unix.gettimeofday () -. st.Unix.st_mtime in
          if age > stale_lock_s () then begin
            Log.warn "ledger" "breaking stale lock"
              ~fields:
                [ ("lock", lock); ("age_s", Printf.sprintf "%.1f" age) ];
            (try Unix.unlink lock with Unix.Unix_error _ -> ());
            true
          end
          else false
      in
      if not broke then Unix.sleepf delay;
      acquire (Float.min 0.05 (delay *. 2.))
  in
  let fd = acquire 0.001 in
  (* Record the holder for post-mortems of any orphan that does occur. *)
  let pid = Bytes.of_string (string_of_int (Unix.getpid ()) ^ "\n") in
  (try ignore (Unix.write fd pid 0 (Bytes.length pid))
   with Unix.Unix_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Unix.unlink lock with Unix.Unix_error _ -> ())
    f

let append path r =
  with_lock path (fun () ->
      let fd =
        Unix.openfile path [ Unix.O_CREAT; Unix.O_WRONLY; Unix.O_APPEND ] 0o644
      in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let line = to_json r ^ "\n" in
          let b = Bytes.of_string line in
          let n = Unix.write fd b 0 (Bytes.length b) in
          if n <> Bytes.length b then failwith "ledger: short write"))

type read_result = { records : record list; skipped : int }

let read path =
  Result.map
    (fun text ->
      let records, skipped =
        List.fold_left
          (fun (records, skipped) line ->
            if String.trim line = "" then (records, skipped)
            else
              match of_line line with
              | Ok r -> (r :: records, skipped)
              | Error _ -> (records, skipped + 1))
          ([], 0)
          (String.split_on_char '\n' text)
      in
      { records = List.rev records; skipped })
    (Obs_json.read_file path)

let find path id =
  match read path with
  | Error e -> Error e
  | Ok { records; _ } -> (
    match List.find_opt (fun r -> r.r_id = id) records with
    | Some r -> Ok r
    | None -> Error (Printf.sprintf "no record with id %s in %s" id path))

type gc_result = { kept : int; dropped_malformed : int; dropped_old : int }

let gc ?keep path =
  with_lock path (fun () ->
      match read path with
      | Error e -> Error e
      | Ok { records; skipped = malformed } ->
        let dropped_old, records =
          match keep with
          | Some k when k >= 0 && List.length records > k ->
            let n = List.length records in
            (n - k, List.filteri (fun i _ -> i >= n - k) records)
          | _ -> (0, records)
        in
        Obs_json.write_durable path
          (String.concat "" (List.map (fun r -> to_json r ^ "\n") records));
        Ok { kept = List.length records; dropped_malformed = malformed; dropped_old })
