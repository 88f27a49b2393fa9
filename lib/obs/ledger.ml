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

let of_json v =
  let open Obs_json.Decode in
  let str name = field name string v in
  {
    r_version = field "schema_version" int v;
    r_id = str "id";
    r_time = field "time" number v;
    r_tool = str "tool";
    r_kind = str "kind";
    r_tag = str "tag";
    r_circuit = str "circuit";
    r_technique = str "technique";
    r_guard = str "guard";
    r_jobs = field "jobs" int v;
    r_args_hash = str "args_hash";
    r_workloads = field "workloads" (list Snapshot.workload_of_json) v;
  }

let of_line line = Obs_json.Decode.decode_string ~source:"ledger line" of_json line

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
   its lock broken under it, which 10 s, 4 orders of magnitude above the
   longest plausible critical section, makes implausible. *)
let stale_lock_s = 10.

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
          if age > stale_lock_s then begin
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

type read_result = { records : record list; skipped : string list }

let read path =
  Result.map
    (fun text ->
      let _, records, skipped =
        List.fold_left
          (fun (n, records, skipped) line ->
            if String.trim line = "" then (n + 1, records, skipped)
            else
              let source = Printf.sprintf "line %d" n in
              match Obs_json.Decode.decode_string ~source of_json line with
              | Ok r -> (n + 1, r :: records, skipped)
              | Error e -> (n + 1, records, e :: skipped))
          (1, [], [])
          (String.split_on_char '\n' text)
      in
      { records = List.rev records; skipped = List.rev skipped })
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
        Ok { kept = List.length records; dropped_malformed = List.length malformed; dropped_old })

(* ------------------------------------------------------------------ *)
(* Rendering ([runs list] / [runs show])                               *)
(* ------------------------------------------------------------------ *)

(* Integral times (the usual injected SMT_CLOCK) print without decimals. *)
let time_str t =
  if Float.is_integer t && Float.abs t < 1e15 then Printf.sprintf "%.0f" t
  else Printf.sprintf "%.3f" t

let plural n = if n = 1 then "" else "s"

let render_list ~kind { records; skipped } =
  let records =
    match kind with None -> records | Some k -> List.filter (fun r -> r.r_kind = k) records
  in
  let header =
    [ "Id"; "Time"; "Kind"; "Tag"; "Circuit"; "Technique"; "Guard"; "Jobs"; "Workloads" ]
  in
  let rows =
    List.map
      (fun r ->
        [
          r.r_id; time_str r.r_time; r.r_kind; r.r_tag; r.r_circuit; r.r_technique;
          r.r_guard; string_of_int r.r_jobs; string_of_int (List.length r.r_workloads);
        ])
      records
  in
  let b = Buffer.create 512 in
  if rows <> [] then begin
    Buffer.add_string b (Smt_util.Text_table.render ~header rows);
    Buffer.add_char b '\n'
  end;
  (match List.length skipped with
  | 0 -> ()
  | n -> Printf.bprintf b "(%d malformed line%s skipped)\n" n (plural n));
  List.iter (Printf.bprintf b "  %s\n") skipped;
  let n = List.length records in
  Printf.bprintf b "%d record%s\n" n (plural n);
  Buffer.contents b

let render_show r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "record %s (schema v%d)" r.r_id r.r_version;
  line "  time      %s" (time_str r.r_time);
  line "  tool      %s" r.r_tool;
  line "  kind      %s" r.r_kind;
  if r.r_tag <> "" then line "  tag       %s" r.r_tag;
  line "  circuit   %s" r.r_circuit;
  line "  technique %s" r.r_technique;
  line "  guard     %s" r.r_guard;
  line "  jobs      %d" r.r_jobs;
  line "  args_hash %s" r.r_args_hash;
  List.iter
    (fun (w : Snapshot.workload) ->
      line "\nworkload %s" w.Snapshot.w_name;
      List.iter (fun (k, v) -> line "  qor.%s = %s" k (time_str v)) w.Snapshot.w_qor;
      List.iter (fun (k, v) -> line "  counter.%s = %d" k v) w.Snapshot.w_counters;
      List.iter
        (fun (stage, ms) ->
          let prof =
            match List.assoc_opt stage w.Snapshot.w_prof with
            | None -> ""
            | Some (p : Prof.stats) ->
              Printf.sprintf " [minor %.2f Mw, major %.2f Mw, gc %d/%d]"
                (p.Prof.minor_words /. 1e6) (p.Prof.major_words /. 1e6)
                p.Prof.minor_collections p.Prof.major_collections
          in
          line "  stage %-55s %8.1f ms%s" stage ms prof)
        w.Snapshot.w_stage_ms)
    r.r_workloads;
  Buffer.contents b
