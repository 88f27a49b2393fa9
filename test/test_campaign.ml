(* Tests for the crash-tolerant campaign runner: job identity, atomic
   checkpoints (including torn files), the process supervisor's retry /
   quarantine / timeout / chaos behaviour, and the byte-determinism of
   the merged snapshot.  The full CLI cycle — chaos run, resume,
   byte-compare against an uninterrupted run — lives in the dune e2e
   rule next to this file. *)

module Job = Smt_campaign.Job
module Ckpt = Smt_campaign.Checkpoint
module Manifest = Smt_campaign.Manifest
module Sup = Smt_campaign.Supervisor
module Merge = Smt_campaign.Merge
module Snapshot = Smt_obs.Snapshot
module Obs_json = Smt_obs.Obs_json
module Prof = Smt_obs.Prof

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let with_temp_dir f =
  let path = Filename.temp_file "smt_campaign" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

let job c t g s = { Job.jb_circuit = c; jb_technique = t; jb_guard = g; jb_seed = s }

let sample_workload name =
  Snapshot.workload ~name
    ~qor:[ ("area_um2", 12.5); ("standby_nw", 3.25) ]
    ~counters:[ ("sta.arrival_evals", 42) ]
    ~stage_ms:[ ("replace", 1.5) ]

let sample_stats =
  {
    Prof.minor_words = 1000.;
    promoted_words = 10.;
    major_words = 20.;
    minor_collections = 2;
    major_collections = 1;
    compactions = 0;
    top_heap_words = 4096;
  }

let done_checkpoint ?(attempt = 1) ?(duration = 0.) ?(prof = []) j =
  {
    Ckpt.cp_version = Ckpt.schema_version;
    cp_job = j;
    cp_status = Ckpt.Done;
    cp_attempt = attempt;
    cp_time = 1000.0;
    cp_duration_s = duration;
    cp_workload = Some { (sample_workload (Job.name j)) with Snapshot.w_prof = prof };
  }

(* ------------------------------------------------------------------ *)
(* Job identity and matrix                                             *)
(* ------------------------------------------------------------------ *)

let test_job_id_and_name () =
  let j = job "circuit_a" "improved" "off" 3 in
  Alcotest.(check string) "filename-safe id" "circuit_a~improved~off~s3" (Job.id j);
  Alcotest.(check string) "workload name" "circuit_a/improved/off/s3" (Job.name j)

let test_job_matrix_order () =
  let m =
    Job.matrix ~circuits:[ "a"; "b" ] ~techniques:[ "dual"; "improved" ]
      ~guards:[ "off" ] ~seeds:[ 1; 2 ]
  in
  Alcotest.(check int) "cross product size" 8 (List.length m);
  Alcotest.(check string) "circuits outermost" "a~dual~off~s1" (Job.id (List.hd m));
  Alcotest.(check string) "seeds innermost" "a~dual~off~s2"
    (Job.id (List.nth m 1));
  let ids = List.map Job.id m in
  Alcotest.(check int) "ids injective" 8
    (List.length (List.sort_uniq compare ids))

let test_job_json_roundtrip () =
  let j = job "circuit_b" "conventional" "warn" 7 in
  match Obs_json.parse (Job.to_json j) with
  | Error e -> Alcotest.fail e
  | Ok doc -> (
    match Job.of_json doc with
    | Error e -> Alcotest.fail e
    | Ok j' -> Alcotest.(check bool) "round-trips" true (j = j'))

(* ------------------------------------------------------------------ *)
(* Checkpoints                                                         *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_roundtrip () =
  with_temp_dir @@ fun dir ->
  let j = job "circuit_a" "dual" "off" 1 in
  Ckpt.write ~dir (done_checkpoint j);
  match Ckpt.load (Ckpt.path ~dir j) with
  | Error e -> Alcotest.fail e
  | Ok cp ->
    Alcotest.(check int) "schema version" Ckpt.schema_version cp.Ckpt.cp_version;
    Alcotest.(check bool) "status done" true (cp.Ckpt.cp_status = Ckpt.Done);
    Alcotest.(check int) "attempt" 1 cp.Ckpt.cp_attempt;
    (match cp.Ckpt.cp_workload with
    | None -> Alcotest.fail "done checkpoint lost its workload"
    | Some w ->
      Alcotest.(check string) "workload name" (Job.name j) w.Snapshot.w_name;
      Alcotest.(check (float 1e-9)) "qor exact" 12.5
        (List.assoc "area_um2" w.Snapshot.w_qor))

let test_checkpoint_failed_roundtrip () =
  with_temp_dir @@ fun dir ->
  let j = job "circuit_a" "dual" "off" 2 in
  Ckpt.write ~dir
    {
      Ckpt.cp_version = Ckpt.schema_version;
      cp_job = j;
      cp_status = Ckpt.Failed "exit 1 (flow aborted)";
      cp_attempt = 3;
      cp_time = 2000.0;
      cp_duration_s = 0.25;
      cp_workload = None;
    };
  match Ckpt.load (Ckpt.path ~dir j) with
  | Error e -> Alcotest.fail e
  | Ok cp -> (
    match cp.Ckpt.cp_status with
    | Ckpt.Failed e ->
      Alcotest.(check string) "error preserved" "exit 1 (flow aborted)" e;
      Alcotest.(check int) "attempts preserved" 3 cp.Ckpt.cp_attempt
    | Ckpt.Done -> Alcotest.fail "failed checkpoint loaded as done")

(* The crash-tolerance core: a checkpoint truncated mid-record (the
   write-path rename makes this near-impossible, but disks lie) must be
   counted unreadable and treated as "job not done" — never crash the
   scan, never double-count once the job is re-run. *)
let test_checkpoint_truncation_treated_missing () =
  with_temp_dir @@ fun dir ->
  let j1 = job "circuit_a" "dual" "off" 1 in
  let j2 = job "circuit_a" "improved" "off" 1 in
  Ckpt.write ~dir (done_checkpoint j1);
  Ckpt.write ~dir (done_checkpoint j2);
  (* truncate j2's checkpoint mid-record *)
  let p2 = Ckpt.path ~dir j2 in
  let full = In_channel.with_open_bin p2 In_channel.input_all in
  Out_channel.with_open_bin p2 (fun oc ->
      Out_channel.output_string oc (String.sub full 0 (String.length full / 2)));
  (match Ckpt.scan dir with
  | Error e -> Alcotest.fail e
  | Ok { Ckpt.sc_checkpoints; sc_unreadable } ->
    Alcotest.(check int) "torn file counted" 1 sc_unreadable;
    Alcotest.(check (list string)) "only the intact job is done"
      [ Job.id j1 ]
      (List.map fst sc_checkpoints));
  (* re-running the job (as resume would) restores full coverage with
     exactly one workload per job — no double count *)
  Ckpt.write ~dir (done_checkpoint ~attempt:2 j2);
  match Ckpt.scan dir with
  | Error e -> Alcotest.fail e
  | Ok { Ckpt.sc_checkpoints; sc_unreadable } ->
    Alcotest.(check int) "no torn files left" 0 sc_unreadable;
    Alcotest.(check int) "one checkpoint per job" 2 (List.length sc_checkpoints)

let test_checkpoint_mislabeled_ignored () =
  with_temp_dir @@ fun dir ->
  let j = job "circuit_a" "dual" "off" 1 in
  Ckpt.write ~dir (done_checkpoint j);
  (* copy it under another job's filename: embedded id disagrees *)
  let imposter = Filename.concat dir ("circuit_b~dual~off~s1" ^ Ckpt.suffix) in
  let body = In_channel.with_open_bin (Ckpt.path ~dir j) In_channel.input_all in
  Out_channel.with_open_bin imposter (fun oc -> Out_channel.output_string oc body);
  match Ckpt.scan dir with
  | Error e -> Alcotest.fail e
  | Ok { Ckpt.sc_checkpoints; sc_unreadable } ->
    Alcotest.(check int) "imposter counted unreadable" 1 sc_unreadable;
    Alcotest.(check (list string)) "only the honest checkpoint survives"
      [ Job.id j ]
      (List.map fst sc_checkpoints)

let test_manifest_roundtrip () =
  with_temp_dir @@ fun dir ->
  let m =
    Manifest.make ~tag:"t" ~circuits:[ "circuit_a" ]
      ~techniques:[ "dual"; "improved" ] ~guards:[ "off" ] ~seeds:[ 1; 2 ]
  in
  Manifest.write dir m;
  match Manifest.load dir with
  | Error e -> Alcotest.fail e
  | Ok m' ->
    Alcotest.(check bool) "round-trips" true (m = m');
    Alcotest.(check int) "matrix from manifest" 4 (List.length (Manifest.jobs m'))

(* ------------------------------------------------------------------ *)
(* Supervisor (real OS processes, /bin/sh workers)                     *)
(* ------------------------------------------------------------------ *)

let fast_cfg =
  {
    Sup.default_config with
    Sup.sv_jobs = 2;
    Sup.sv_timeout_s = 10.;
    Sup.sv_max_attempts = 3;
    Sup.sv_retry_base_ms = 1.;
    Sup.sv_retry_cap_ms = 5.;
  }

let marker dir id = Filename.concat dir (id ^ ".marker")

let verify_marker dir id =
  if Sys.file_exists (marker dir id) then Ok () else Error "marker missing"

let sh script = [| "/bin/sh"; "-c"; script |]

let test_supervisor_all_complete () =
  with_temp_dir @@ fun dir ->
  let ids = [ "j1"; "j2"; "j3"; "j4"; "j5" ] in
  let summary =
    Sup.run fast_cfg
      ~command:(fun ~id ~attempt:_ -> sh (Printf.sprintf "touch %s" (marker dir id)))
      ~verify:(verify_marker dir) ids
  in
  Alcotest.(check int) "no retries" 0 summary.Sup.sm_retries;
  Alcotest.(check (list string)) "all jobs completed, input order" ids
    (List.map fst summary.Sup.sm_outcomes);
  List.iter
    (fun (_, o) ->
      Alcotest.(check bool) "first attempt" true (o = Sup.Completed { attempts = 1 }))
    summary.Sup.sm_outcomes

let test_supervisor_retry_then_complete () =
  with_temp_dir @@ fun dir ->
  (* fails on attempts 1 and 2, succeeds on 3: retry/backoff must carry
     it to completion within the attempt budget *)
  let summary =
    Sup.run fast_cfg
      ~command:(fun ~id ~attempt ->
        if attempt >= 3 then sh (Printf.sprintf "touch %s" (marker dir id))
        else sh "exit 1")
      ~verify:(verify_marker dir) [ "flaky" ]
  in
  Alcotest.(check int) "two retries" 2 summary.Sup.sm_retries;
  Alcotest.(check bool) "completed on the third attempt" true
    (List.assoc "flaky" summary.Sup.sm_outcomes = Sup.Completed { attempts = 3 })

let test_supervisor_quarantine () =
  with_temp_dir @@ fun dir ->
  let summary =
    Sup.run fast_cfg
      ~command:(fun ~id:_ ~attempt:_ -> sh "exit 7")
      ~verify:(verify_marker dir) [ "doomed"; "fine" ]
  in
  (match List.assoc "doomed" summary.Sup.sm_outcomes with
  | Sup.Quarantined { attempts; last_error } ->
    Alcotest.(check int) "attempt budget spent" 3 attempts;
    Alcotest.(check bool) "exit code in the error" true
      (String.length last_error > 0)
  | Sup.Completed _ -> Alcotest.fail "persistent failure was not quarantined");
  Alcotest.(check int) "both quarantined (campaign still finished)" 2
    (List.length (Sup.quarantined summary))

(* Clean exit 0 without the durable result is still a failure: the
   verify predicate decides, not the exit status. *)
let test_supervisor_verify_rejects_clean_exit () =
  with_temp_dir @@ fun dir ->
  let summary =
    Sup.run
      { fast_cfg with Sup.sv_max_attempts = 2 }
      ~command:(fun ~id:_ ~attempt:_ -> sh "exit 0")
      ~verify:(verify_marker dir) [ "liar" ]
  in
  match List.assoc "liar" summary.Sup.sm_outcomes with
  | Sup.Quarantined { attempts; last_error } ->
    Alcotest.(check int) "retried before quarantine" 2 attempts;
    Alcotest.(check bool) "verify's reason surfaces" true
      (String.length last_error > 0 && String.ends_with ~suffix:")" last_error)
  | Sup.Completed _ -> Alcotest.fail "clean exit must not mask a missing result"

(* And the converse: a worker that dies by signal after producing its
   result has still completed the job — kills after the checkpoint
   rename are absorbed, not re-run. *)
let test_supervisor_verify_accepts_dirty_exit () =
  with_temp_dir @@ fun dir ->
  let summary =
    Sup.run fast_cfg
      ~command:(fun ~id ~attempt:_ ->
        sh (Printf.sprintf "touch %s; kill -9 $$" (marker dir id)))
      ~verify:(verify_marker dir) [ "martyr" ]
  in
  Alcotest.(check bool) "durable result decides" true
    (List.assoc "martyr" summary.Sup.sm_outcomes = Sup.Completed { attempts = 1 });
  Alcotest.(check int) "no retry burned" 0 summary.Sup.sm_retries

let test_supervisor_timeout () =
  with_temp_dir @@ fun dir ->
  let summary =
    Sup.run
      { fast_cfg with Sup.sv_timeout_s = 0.1; Sup.sv_max_attempts = 1 }
      ~command:(fun ~id:_ ~attempt:_ -> sh "sleep 30")
      ~verify:(verify_marker dir) [ "stuck" ]
  in
  Alcotest.(check int) "timeout counted" 1 summary.Sup.sm_timeouts;
  match List.assoc "stuck" summary.Sup.sm_outcomes with
  | Sup.Quarantined { last_error; _ } ->
    Alcotest.(check bool) "cause named in the error" true
      (String.length last_error >= 7 && String.sub last_error 0 7 = "timeout")
  | Sup.Completed _ -> Alcotest.fail "a hung shard must not complete"

let test_supervisor_chaos_kills_deterministically () =
  with_temp_dir @@ fun dir ->
  let cfg =
    {
      fast_cfg with
      Sup.sv_chaos = 1.0;
      Sup.sv_chaos_delay_ms = 5.;
      Sup.sv_max_attempts = 2;
      Sup.sv_seed = 42;
    }
  in
  let run () =
    Sup.run cfg
      ~command:(fun ~id:_ ~attempt:_ -> sh "sleep 30")
      ~verify:(verify_marker dir) [ "victim" ]
  in
  let s1 = run () in
  Alcotest.(check int) "every attempt chaos-killed" 2 s1.Sup.sm_chaos_kills;
  (match List.assoc "victim" s1.Sup.sm_outcomes with
  | Sup.Quarantined { last_error; _ } ->
    Alcotest.(check bool) "chaos kill named" true
      (String.length last_error >= 10 && String.sub last_error 0 10 = "chaos-kill")
  | Sup.Completed _ -> Alcotest.fail "p=1.0 chaos must kill every attempt");
  (* same config, same schedule: the summary is reproducible *)
  let s2 = run () in
  Alcotest.(check bool) "kill schedule is a function of the config" true
    (s1.Sup.sm_outcomes = s2.Sup.sm_outcomes)

(* ------------------------------------------------------------------ *)
(* Merge determinism                                                   *)
(* ------------------------------------------------------------------ *)

let write_campaign dir jobs_done =
  Manifest.write dir
    (Manifest.make ~tag:"m" ~circuits:[ "circuit_a"; "circuit_b" ]
       ~techniques:[ "dual" ] ~guards:[ "off" ] ~seeds:[ 1 ]);
  List.iter (fun j -> Ckpt.write ~dir (done_checkpoint j)) jobs_done

let test_merge_complete_and_byte_deterministic () =
  let ja = job "circuit_a" "dual" "off" 1 in
  let jb = job "circuit_b" "dual" "off" 1 in
  let snap order =
    with_temp_dir @@ fun dir ->
    write_campaign dir order;
    match Merge.of_dir dir with
    | Error e -> Alcotest.fail e
    | Ok m ->
      Alcotest.(check bool) "complete" true (Merge.complete m);
      Snapshot.to_json m.Merge.mg_snapshot
  in
  (* write order must not leak into the merged bytes *)
  Alcotest.(check string) "byte-identical under write reordering"
    (snap [ ja; jb ]) (snap [ jb; ja ])

let test_merge_strips_wallclock () =
  with_temp_dir @@ fun dir ->
  write_campaign dir
    [ job "circuit_a" "dual" "off" 1; job "circuit_b" "dual" "off" 1 ];
  match Merge.of_dir dir with
  | Error e -> Alcotest.fail e
  | Ok m ->
    List.iter
      (fun (w : Snapshot.workload) ->
        Alcotest.(check int)
          (w.Snapshot.w_name ^ ": stage_ms stripped")
          0
          (List.length w.Snapshot.w_stage_ms))
      m.Merge.mg_snapshot.Snapshot.s_workloads

let test_merge_partial_coverage () =
  with_temp_dir @@ fun dir ->
  let ja = job "circuit_a" "dual" "off" 1 in
  let jb = job "circuit_b" "dual" "off" 1 in
  write_campaign dir [ ja ];
  Ckpt.write ~dir
    {
      Ckpt.cp_version = Ckpt.schema_version;
      cp_job = jb;
      cp_status = Ckpt.Failed "exit 1 (boom)";
      cp_attempt = 3;
      cp_time = 1.0;
      cp_duration_s = 0.;
      cp_workload = None;
    };
  (* a checkpoint outside the matrix must be ignored, not merged *)
  Ckpt.write ~dir (done_checkpoint (job "circuit_a" "improved" "off" 1));
  match Merge.of_dir dir with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check bool) "not complete" false (Merge.complete m);
    Alcotest.(check int) "done" 1 m.Merge.mg_done;
    Alcotest.(check int) "failed" 1 m.Merge.mg_failed;
    Alcotest.(check int) "missing" 0 m.Merge.mg_missing;
    Alcotest.(check int) "stray checkpoint not merged" 1
      (List.length m.Merge.mg_snapshot.Snapshot.s_workloads);
    let states =
      List.map (fun (js : Merge.job_state) -> js.Merge.js_state) m.Merge.mg_states
    in
    Alcotest.(check bool) "failure surfaces in the states" true
      (List.exists (function Merge.Sfailed _ -> true | _ -> false) states)

(* The status view is read from checkpoints alone.  One done job (1.5 s),
   one quarantined job and one job without a checkpoint: the table, the
   summary line and the ETA (one missing job x the 1.5 s mean of the done
   durations) are pinned byte for byte, as is the JSON form. *)
let test_merge_status_view () =
  with_temp_dir @@ fun dir ->
  Manifest.write dir
    (Manifest.make ~tag:"st" ~circuits:[ "circuit_a"; "circuit_b"; "c17" ]
       ~techniques:[ "dual" ] ~guards:[ "off" ] ~seeds:[ 1 ]);
  Ckpt.write ~dir (done_checkpoint ~duration:1.5 (job "circuit_a" "dual" "off" 1));
  Ckpt.write ~dir
    {
      Ckpt.cp_version = Ckpt.schema_version;
      cp_job = job "circuit_b" "dual" "off" 1;
      cp_status = Ckpt.Failed "exit 1 (boom)";
      cp_attempt = 3;
      cp_time = 1.0;
      cp_duration_s = 0.;
      cp_workload = None;
    };
  match Merge.of_dir dir with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check string) "status view"
      (String.concat "\n"
         [
           "+-----------------------+---------+----------+---------------+";
           "| Job                   | State   | Attempts | Detail        |";
           "+-----------------------+---------+----------+---------------+";
           "| circuit_a~dual~off~s1 | done    | 1        | 1.50s         |";
           "| circuit_b~dual~off~s1 | failed  | 3        | exit 1 (boom) |";
           "| c17~dual~off~s1       | missing | -        |               |";
           "+-----------------------+---------+----------+---------------+";
           "campaign st: 1/3 done, 1 failed, 1 missing";
           "~1.5s of shard compute remaining (1 jobs x 1.50s avg)";
         ])
      (Merge.render_status m);
    Alcotest.(check string) "json view"
      ({|{"tag":"st","total":3,"done":1,"failed":1,"missing":1,"unreadable":0,|}
     ^ {|"complete":false,"avg_job_s":1.5,"remaining":1,"eta_s":1.5,"jobs":[|}
     ^ {|{"id":"circuit_a~dual~off~s1","state":"done","attempt":1,"detail":"1.50s"},|}
     ^ {|{"id":"circuit_b~dual~off~s1","state":"failed","attempt":3,"detail":"exit 1 (boom)"},|}
     ^ {|{"id":"c17~dual~off~s1","state":"missing","attempt":0,"detail":""}]}|})
      (Merge.status_json m)

(* ------------------------------------------------------------------ *)
(* Checkpoint forward compatibility                                    *)
(* ------------------------------------------------------------------ *)

(* Checkpoints written by older binaries (same schema version) must
   load — campaign directories survive binary upgrades mid-campaign:
   - before the duration envelope field existed, with neutral defaults;
   - with per-stage GC attribution as a top-level "prof" beside the
     workload (the layout before it moved into the workload), which is
     ignored and merges to exactly the snapshot bytes of the current
     layout. *)
let test_checkpoint_old_format_defaults () =
  let j = job "circuit_a" "dual" "off" 1 in
  let old_json extra =
    Obs_json.obj
      ([
         ("schema_version", string_of_int Ckpt.schema_version);
         ("job", Job.to_json j);
         ("status", Obs_json.str "done");
         ("attempt", "1");
         ("time", "1000");
         ("workload", Snapshot.workload_json (sample_workload (Job.name j)));
       ]
      @ extra)
  in
  let top_level_prof =
    [
      ("duration_s", "0.5");
      ("prof", Obs_json.obj [ ("replace", Prof.stats_json sample_stats) ]);
    ]
  in
  let merged ?(duration = 0.) write =
    with_temp_dir @@ fun dir ->
    write_campaign dir [];
    write dir;
    (match Ckpt.load (Ckpt.path ~dir j) with
    | Error e -> Alcotest.fail e
    | Ok cp ->
      Alcotest.(check bool) "loads as done" true (cp.Ckpt.cp_status = Ckpt.Done);
      Alcotest.(check (float 0.)) "duration (0 when absent)" duration
        cp.Ckpt.cp_duration_s);
    match Merge.of_dir dir with
    | Error e -> Alcotest.fail e
    | Ok m -> Snapshot.to_json m.Merge.mg_snapshot
  in
  let write_raw json dir =
    Out_channel.with_open_bin (Ckpt.path ~dir j) (fun oc ->
        Out_channel.output_string oc (json ^ "\n"))
  in
  let current = merged (fun dir -> Ckpt.write ~dir (done_checkpoint j)) in
  Alcotest.(check string) "pre-envelope layout merges identically" current
    (merged (write_raw (old_json [])));
  Alcotest.(check string) "top-level prof layout merges identically" current
    (merged ~duration:0.5 (write_raw (old_json top_level_prof)))

let test_checkpoint_envelope_roundtrip () =
  with_temp_dir @@ fun dir ->
  let j = job "circuit_a" "improved" "off" 4 in
  Ckpt.write ~dir
    (done_checkpoint ~duration:1.75 ~prof:[ ("replace", sample_stats) ] j);
  match Ckpt.load (Ckpt.path ~dir j) with
  | Error e -> Alcotest.fail e
  | Ok cp ->
    Alcotest.(check (float 1e-12)) "duration round-trips" 1.75 cp.Ckpt.cp_duration_s;
    (match Option.map (fun w -> w.Snapshot.w_prof) cp.Ckpt.cp_workload with
    | Some [ (stage, st) ] ->
      Alcotest.(check string) "prof stage" "replace" stage;
      Alcotest.(check (float 1e-9)) "minor words" 1000. st.Prof.minor_words;
      Alcotest.(check int) "top heap" 4096 st.Prof.top_heap_words
    | _ -> Alcotest.fail "prof lost in the round-trip")

(* ------------------------------------------------------------------ *)
(* Merge: the checkpoint envelope                                      *)
(* ------------------------------------------------------------------ *)

(* The envelope fields feed the ledger view but must never reach the
   byte-compared snapshot: a campaign run with profiling on merges to
   exactly the bytes of one run with it off. *)
let test_merge_snapshot_ignores_envelope () =
  let ja = job "circuit_a" "dual" "off" 1 in
  let jb = job "circuit_b" "dual" "off" 1 in
  let snap ~duration ~prof =
    with_temp_dir @@ fun dir ->
    Manifest.write dir
      (Manifest.make ~tag:"m" ~circuits:[ "circuit_a"; "circuit_b" ]
         ~techniques:[ "dual" ] ~guards:[ "off" ] ~seeds:[ 1 ]);
    List.iter
      (fun j -> Ckpt.write ~dir (done_checkpoint ~duration ~prof j))
      [ ja; jb ];
    match Merge.of_dir dir with
    | Error e -> Alcotest.fail e
    | Ok m -> Snapshot.to_json m.Merge.mg_snapshot
  in
  Alcotest.(check string) "byte-identical with and without the envelope"
    (snap ~duration:0. ~prof:[])
    (snap ~duration:3.25 ~prof:[ ("replace", sample_stats) ])

let test_merge_workloads_carry_prof () =
  with_temp_dir @@ fun dir ->
  Manifest.write dir
    (Manifest.make ~tag:"m" ~circuits:[ "circuit_a" ] ~techniques:[ "dual" ]
       ~guards:[ "off" ] ~seeds:[ 1 ]);
  let j = job "circuit_a" "dual" "off" 1 in
  Ckpt.write ~dir
    (done_checkpoint ~duration:1.5 ~prof:[ ("replace", sample_stats) ] j);
  match Merge.of_dir dir with
  | Error e -> Alcotest.fail e
  | Ok m -> (
    (match m.Merge.mg_states with
    | [ js ] ->
      Alcotest.(check (float 1e-12)) "duration surfaces in the state" 1.5
        js.Merge.js_duration_s
    | _ -> Alcotest.fail "expected one job state");
    match Merge.workloads m with
    | [ w ] ->
      Alcotest.(check string) "named after the job" (Job.name j) w.Snapshot.w_name;
      Alcotest.(check bool) "stage wall-clock kept (unlike the snapshot)" true
        (List.length w.Snapshot.w_stage_ms > 0);
      Alcotest.(check (float 1e-9)) "per-stage GC attribution threaded through"
        1000.
        (List.assoc "replace" w.Snapshot.w_prof).Prof.minor_words
    | ws -> Alcotest.failf "expected 1 ledger workload, got %d" (List.length ws))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "campaign"
    [
      ( "job",
        [
          Alcotest.test_case "id and name" `Quick test_job_id_and_name;
          Alcotest.test_case "matrix order" `Quick test_job_matrix_order;
          Alcotest.test_case "json round-trip" `Quick test_job_json_roundtrip;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "done round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "failed round-trip" `Quick
            test_checkpoint_failed_roundtrip;
          Alcotest.test_case "truncation treated as missing" `Quick
            test_checkpoint_truncation_treated_missing;
          Alcotest.test_case "mislabeled file ignored" `Quick
            test_checkpoint_mislabeled_ignored;
          Alcotest.test_case "manifest round-trip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "pre-envelope format loads with defaults" `Quick
            test_checkpoint_old_format_defaults;
          Alcotest.test_case "duration and prof round-trip" `Quick
            test_checkpoint_envelope_roundtrip;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "all jobs complete" `Quick test_supervisor_all_complete;
          Alcotest.test_case "retry with backoff" `Quick
            test_supervisor_retry_then_complete;
          Alcotest.test_case "quarantine after max attempts" `Quick
            test_supervisor_quarantine;
          Alcotest.test_case "verify rejects a clean exit" `Quick
            test_supervisor_verify_rejects_clean_exit;
          Alcotest.test_case "verify accepts a dirty exit" `Quick
            test_supervisor_verify_accepts_dirty_exit;
          Alcotest.test_case "timeout kills a hung shard" `Quick
            test_supervisor_timeout;
          Alcotest.test_case "chaos kills deterministically" `Quick
            test_supervisor_chaos_kills_deterministically;
        ] );
      ( "merge",
        [
          Alcotest.test_case "byte-deterministic" `Quick
            test_merge_complete_and_byte_deterministic;
          Alcotest.test_case "wall-clock stripped" `Quick test_merge_strips_wallclock;
          Alcotest.test_case "partial coverage reported" `Quick
            test_merge_partial_coverage;
          Alcotest.test_case "status view from checkpoints" `Quick
            test_merge_status_view;
          Alcotest.test_case "snapshot ignores the envelope" `Quick
            test_merge_snapshot_ignores_envelope;
          Alcotest.test_case "ledger workloads carry prof" `Quick
            test_merge_workloads_carry_prof;
        ] );
    ]
