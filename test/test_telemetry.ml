(* Tests for the persistent telemetry layer: histogram quantiles, GC
   profiling (deltas and the flow's stage-span args), the append-only run
   ledger, trend analysis over it, and the folded-stacks flame export. *)

module Metrics = Smt_obs.Metrics
module Prof = Smt_obs.Prof
module Ledger = Smt_obs.Ledger
module Trend = Smt_obs.Trend
module Flame = Smt_obs.Flame
module Snapshot = Smt_obs.Snapshot
module Obs_json = Smt_obs.Obs_json

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  nl = 0 || at 0

let check_contains msg needle haystack =
  Alcotest.(check bool) msg true (contains ~needle haystack)

(* ------------------------------------------------------------------ *)
(* Metrics: histogram quantiles                                        *)
(* ------------------------------------------------------------------ *)

let test_quantile_interpolation () =
  let h = Metrics.histogram ~buckets:[ 1.0; 2.0; 4.0; 8.0 ] "tele.q_interp" in
  List.iter (Metrics.observe h) [ 0.5; 1.5; 3.0; 6.0 ];
  (* one hit per finite bucket: rank q*4 walks the cumulative counts and
     interpolates linearly inside the winning bucket *)
  Alcotest.(check (float 1e-9)) "p50" 2.0 (Metrics.histogram_quantile h 0.5);
  Alcotest.(check (float 1e-9)) "p75" 4.0 (Metrics.histogram_quantile h 0.75);
  Alcotest.(check (float 1e-9)) "p100" 8.0 (Metrics.histogram_quantile h 1.0)

let test_quantile_edges () =
  let h = Metrics.histogram ~buckets:[ 1.0; 2.0 ] "tele.q_edges" in
  Alcotest.(check bool) "empty histogram is nan" true
    (Float.is_nan (Metrics.histogram_quantile h 0.5));
  Metrics.observe h 100.0;
  (* the open +inf bucket reports its lower bound, the largest finite one *)
  Alcotest.(check (float 1e-9)) "+inf bucket degrades to lower bound" 2.0
    (Metrics.histogram_quantile h 0.99)

let test_quantile_of_hits_delta () =
  let h = Metrics.histogram ~buckets:[ 1.0; 2.0; 4.0 ] "tele.q_delta" in
  Metrics.observe h 0.5;
  let hits0 = Metrics.histogram_hits h in
  List.iter (Metrics.observe h) [ 3.0; 3.0 ];
  let delta = Array.map2 ( - ) (Metrics.histogram_hits h) hits0 in
  Alcotest.(check int) "delta counts only the phase" 2 (Array.fold_left ( + ) 0 delta);
  (* both phase observations land in (2,4]: every quantile stays there *)
  let p50 = Metrics.quantile_of_hits h delta 0.5 in
  Alcotest.(check bool) "phase quantile ignores earlier hits" true
    (p50 > 2.0 && p50 <= 4.0)

let test_snapshot_and_json_quantiles () =
  let h = Metrics.histogram ~buckets:[ 1.0; 2.0 ] "tele.q_snap" in
  Metrics.observe h 0.5;
  let snap = Metrics.snapshot () in
  Alcotest.(check (float 1e-9)) "snapshot p50" 0.5
    (List.assoc "tele.q_snap.p50" snap);
  Alcotest.(check bool) "snapshot p90 present" true
    (List.mem_assoc "tele.q_snap.p90" snap);
  Alcotest.(check bool) "snapshot p99 present" true
    (List.mem_assoc "tele.q_snap.p99" snap);
  check_contains "to_json carries quantiles" "\"p50\":" (Metrics.to_json ())

(* ------------------------------------------------------------------ *)
(* Prof: GC attribution spans                                          *)
(* ------------------------------------------------------------------ *)

let alloc_some () =
  ignore (Sys.opaque_identity (Array.init 50_000 (fun i -> float_of_int i)))

let test_prof_disabled_is_noop () =
  Prof.disable ();
  let m = Prof.mark () in
  alloc_some ();
  Alcotest.(check bool) "record gives None when off" true (Prof.record m = None)

let test_prof_span_records_allocation () =
  Prof.enable ();
  let m = Prof.mark () in
  alloc_some ();
  let st = Prof.record m in
  Prof.disable ();
  match st with
  | None -> Alcotest.fail "no delta while profiling was on"
  | Some st ->
    Alcotest.(check bool) "words charged to the interval" true
      (st.Prof.minor_words +. st.Prof.major_words > 0.0);
    Alcotest.(check bool) "peak heap observed" true (st.Prof.top_heap_words > 0)

(* The flow's stage spans carry exactly the eight QoR args unprofiled;
   profiled, the four GC args ride along and equal the stage's
   [stage_prof], so a trace alone answers "where did the allocation go". *)
let test_stage_span_gc_args () =
  let module Flow = Smt_core.Flow in
  let module Trace = Smt_obs.Trace in
  let qor_keys =
    [
      "area_um2"; "area_delta_um2"; "standby_nw"; "standby_delta_nw"; "wns_ps";
      "worst_bounce_v"; "switches"; "holders";
    ]
  in
  let gc_keys = [ "minor_words"; "major_words"; "minor_collections"; "major_collections" ] in
  let run ~profile =
    if profile then Prof.enable () else Prof.disable ();
    Trace.enable ();
    Trace.clear ();
    let report =
      Fun.protect
        ~finally:(fun () ->
          Trace.disable ();
          Prof.disable ())
        (fun () ->
          Flow.run Flow.Improved_smt
            (Smt_circuits.Suite.tiny (Smt_cell.Library.default ())))
    in
    let spans = Trace.events () in
    List.map
      (fun (s : Flow.stage) ->
        match List.find_opt (fun ev -> ev.Trace.ev_name = s.Flow.stage_name) spans with
        | Some ev -> (s, ev.Trace.ev_args)
        | None -> Alcotest.failf "no span for stage %S" s.Flow.stage_name)
      report.Flow.stages
  in
  let off = run ~profile:false in
  Alcotest.(check bool) "stages ran" true (off <> []);
  List.iter
    (fun ((s : Flow.stage), args) ->
      Alcotest.(check (list string)) (s.Flow.stage_name ^ ": unprofiled keys") qor_keys
        (List.map fst args))
    off;
  List.iter
    (fun ((s : Flow.stage), args) ->
      let name = s.Flow.stage_name in
      Alcotest.(check (list string)) (name ^ ": profiled keys") (qor_keys @ gc_keys)
        (List.map fst args);
      match s.Flow.stage_prof with
      | None -> Alcotest.failf "%s: no stage_prof while profiling" name
      | Some p ->
        let arg k = float_of_string (List.assoc k args) in
        Alcotest.(check (float 0.)) (name ^ ": minor words") p.Prof.minor_words
          (arg "minor_words");
        Alcotest.(check (float 0.)) (name ^ ": major words") p.Prof.major_words
          (arg "major_words");
        Alcotest.(check int) (name ^ ": minor collections") p.Prof.minor_collections
          (int_of_float (arg "minor_collections"));
        Alcotest.(check int) (name ^ ": major collections") p.Prof.major_collections
          (int_of_float (arg "major_collections")))
    (run ~profile:true)

let test_prof_stats_json_roundtrip () =
  let st =
    {
      Prof.minor_words = 1234.0;
      promoted_words = 56.0;
      major_words = 789.0;
      minor_collections = 3;
      major_collections = 1;
      compactions = 0;
      top_heap_words = 4096;
    }
  in
  match Obs_json.parse (Prof.stats_json st) with
  | Error e -> Alcotest.fail e
  | Ok doc -> (
    match Prof.stats_of_json doc with
    | Error e -> Alcotest.fail e
    | Ok st' -> Alcotest.(check bool) "stats round-trip" true (st = st'))

(* ------------------------------------------------------------------ *)
(* Ledger                                                              *)
(* ------------------------------------------------------------------ *)

let sample_workload ?(prof = []) name v =
  {
    (Snapshot.workload ~name
       ~qor:[ ("area_um2", v); ("standby_nw", v /. 2.0) ]
       ~counters:[ ("sta.arrival_evals", int_of_float v) ]
       ~stage_ms:[ ("replace", 1.5) ])
    with
    Snapshot.w_prof = prof;
  }

let stats minor promoted major minor_gc major_gc top_heap =
  {
    Prof.minor_words = minor;
    promoted_words = promoted;
    major_words = major;
    minor_collections = minor_gc;
    major_collections = major_gc;
    compactions = 0;
    top_heap_words = top_heap;
  }

let sample_record ?prof ~time v =
  Ledger.make ~time ~tool:"smt_flow test" ~tag:"t" ~circuit:"circuit_a"
    ~technique:"improved" ~guard:"mte" ~jobs:2 ~args:[ "run"; "-c"; "circuit_a" ]
    ~kind:"run"
    [ sample_workload ?prof "circuit_a/improved" v ]

let with_temp_ledger f =
  let path = Filename.temp_file "smt_ledger" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Sys.remove (path ^ ".lock") with Sys_error _ -> ())
    (fun () -> f path)

let test_ledger_line_roundtrip () =
  let prof = [ ("replace", stats 42.0 0. 0. 2 0 0) ] in
  let r = sample_record ~prof ~time:1000.0 123.0 in
  match Ledger.of_line (Ledger.to_json r) with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    Alcotest.(check int) "schema version" Ledger.schema_version r'.Ledger.r_version;
    Alcotest.(check string) "id survives" r.Ledger.r_id r'.Ledger.r_id;
    Alcotest.(check string) "kind" "run" r'.Ledger.r_kind;
    Alcotest.(check string) "circuit" "circuit_a" r'.Ledger.r_circuit;
    Alcotest.(check string) "technique" "improved" r'.Ledger.r_technique;
    Alcotest.(check string) "guard" "mte" r'.Ledger.r_guard;
    Alcotest.(check int) "jobs" 2 r'.Ledger.r_jobs;
    Alcotest.(check string) "args hash" r.Ledger.r_args_hash r'.Ledger.r_args_hash;
    let w = List.hd r'.Ledger.r_workloads in
    Alcotest.(check string) "workload name" "circuit_a/improved"
      w.Snapshot.w_name;
    Alcotest.(check (float 1e-9)) "qor survives exactly" 123.0
      (List.assoc "area_um2" w.Snapshot.w_qor);
    let p = List.assoc "replace" w.Snapshot.w_prof in
    Alcotest.(check (float 1e-9)) "prof rides along" 42.0 p.Prof.minor_words

(* Pins the ledger line format byte for byte: a record id is a digest of
   the line, so a codec change that moved one byte would orphan every id
   already in a ledger. *)
let golden_line =
  {|{"id":"a4d55a531fe3","schema_version":1,"time":1000.25,"tool":"smt_flow 1.0.0","kind":"run","tag":"golden","circuit":"circuit_a","technique":"improved","guard":"off","jobs":1,"args_hash":"fbc0dbc8e0d3","workloads":[{"name":"circuit_a/improved","qor":{"area_um2":10712.106000000033,"standby_nw":1367.84499999999},"counters":{"flow.runs":1,"sta.arrival_evals":5120},"stage_ms":[{"stage":"physical-synthesis (all low-Vth)","ms":12.5},{"stage":"high-Vth replacement","ms":3.25}],"prof":{"physical-synthesis (all low-Vth)":{"minor_words":1.23457e+06,"promoted_words":2048,"major_words":4096,"minor_collections":5,"major_collections":1,"compactions":0,"top_heap_words":262144},"high-Vth replacement":{"minor_words":98765.5,"promoted_words":0,"major_words":12,"minor_collections":1,"major_collections":0,"compactions":0,"top_heap_words":262144}}}]}|}

let test_ledger_golden_line () =
  let w =
    {
      (Snapshot.workload ~name:"circuit_a/improved"
         ~qor:[ ("standby_nw", 1367.84499999999); ("area_um2", 10712.106000000033) ]
         ~counters:[ ("sta.arrival_evals", 5120); ("flow.runs", 1) ]
         ~stage_ms:[ ("physical-synthesis (all low-Vth)", 12.5); ("high-Vth replacement", 3.25) ])
      with
      Snapshot.w_prof =
        [
          ("physical-synthesis (all low-Vth)", stats 1234567. 2048. 4096. 5 1 262144);
          ("high-Vth replacement", stats 98765.5 0. 12. 1 0 262144);
        ];
    }
  in
  let r =
    Ledger.make ~time:1000.25 ~tool:"smt_flow 1.0.0" ~tag:"golden" ~circuit:"circuit_a"
      ~technique:"improved" ~guard:"off" ~jobs:1
      ~args:[ "run"; "-c"; "circuit_a"; "--ledger"; "L.jsonl" ]
      ~kind:"run" [ w ]
  in
  Alcotest.(check string) "ledger line bytes" golden_line (Ledger.to_json r);
  match Ledger.of_line golden_line with
  | Error e -> Alcotest.fail e
  | Ok r' ->
    Alcotest.(check string) "re-emitted from the parse" golden_line (Ledger.to_json r')

let test_ledger_id_deterministic () =
  let a = sample_record ~time:1000.0 123.0 in
  let b = sample_record ~time:1000.0 123.0 in
  let c = sample_record ~time:2000.0 123.0 in
  Alcotest.(check string) "same payload, same id" a.Ledger.r_id b.Ledger.r_id;
  Alcotest.(check bool) "time feeds the id" true (a.Ledger.r_id <> c.Ledger.r_id);
  Alcotest.(check int) "12-hex id" 12 (String.length a.Ledger.r_id)

let test_ledger_truncated_tail () =
  with_temp_ledger @@ fun path ->
  Ledger.append path (sample_record ~time:1000.0 1.0);
  Ledger.append path (sample_record ~time:2000.0 2.0);
  (* a run that died mid-append leaves a torn last line *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"version\":1,\"id\":\"dead";
  close_out oc;
  (match Ledger.read path with
  | Error e -> Alcotest.fail e
  | Ok { Ledger.records; skipped } ->
    Alcotest.(check int) "intact records survive" 2 (List.length records);
    Alcotest.(check int) "torn tail skipped" 1 skipped);
  (match Ledger.gc path with
  | Error e -> Alcotest.fail e
  | Ok g ->
    Alcotest.(check int) "gc keeps the good lines" 2 g.Ledger.kept;
    Alcotest.(check int) "gc drops the torn one" 1 g.Ledger.dropped_malformed);
  match Ledger.read path with
  | Error e -> Alcotest.fail e
  | Ok { Ledger.skipped; _ } ->
    Alcotest.(check int) "clean after gc" 0 skipped

let test_ledger_gc_keep_and_find () =
  with_temp_ledger @@ fun path ->
  let rs = List.map (fun i -> sample_record ~time:(float_of_int i) (float_of_int i)) [ 1; 2; 3 ] in
  List.iter (Ledger.append path) rs;
  let last = List.nth rs 2 in
  (match Ledger.gc ~keep:1 path with
  | Error e -> Alcotest.fail e
  | Ok g ->
    Alcotest.(check int) "only the newest survives" 1 g.Ledger.kept;
    Alcotest.(check int) "older records dropped" 2 g.Ledger.dropped_old);
  (match Ledger.find path last.Ledger.r_id with
  | Error e -> Alcotest.fail e
  | Ok r -> Alcotest.(check string) "newest is findable" last.Ledger.r_id r.Ledger.r_id);
  match Ledger.find path (List.hd rs).Ledger.r_id with
  | Ok _ -> Alcotest.fail "gc'd record still findable"
  | Error _ -> ()

(* [open_in] succeeds on a directory; the read after it must not escape
   as [Sys_error], for [read] and for [gc]'s rewrite alike. *)
let with_temp_dir f =
  let dir = Filename.temp_file "smt_ledger_dir" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> Unix.rmdir dir) (fun () -> f dir)

let test_ledger_read_directory () =
  with_temp_dir @@ fun dir ->
  match Ledger.read dir with
  | Ok _ -> Alcotest.fail "read a directory as a ledger"
  | Error _ -> ()

let test_ledger_gc_directory () =
  with_temp_dir @@ fun dir ->
  match Ledger.gc dir with
  | Ok _ -> Alcotest.fail "gc rewrote a directory"
  | Error _ -> ()

(* A holder SIGKILLed between lock create and unlink leaves the .lock
   file behind with nobody to remove it.  Simulate the orphan directly
   (create the file, backdate its mtime past the staleness threshold) and
   check a later append breaks it rather than spinning forever. *)
let test_ledger_stale_lock_broken () =
  with_temp_ledger @@ fun path ->
  let lock = path ^ ".lock" in
  let fd = Unix.openfile lock [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644 in
  Unix.close fd;
  let past = Unix.gettimeofday () -. 3600. in
  Unix.utimes lock past past;
  Ledger.append path (sample_record ~time:1000.0 1.0);
  Alcotest.(check bool) "stale lock removed" false (Sys.file_exists lock);
  match Ledger.read path with
  | Error e -> Alcotest.fail e
  | Ok { Ledger.records; skipped } ->
    Alcotest.(check int) "append landed" 1 (List.length records);
    Alcotest.(check int) "no torn lines" 0 skipped

(* The threshold is configurable: with SMT_LOCK_STALE_MS=50 even a
   fresh-looking orphan is broken after ~50ms of spinning, so a test
   (or an impatient operator) need not wait out the 10s default. *)
let test_ledger_stale_lock_threshold_env () =
  with_temp_ledger @@ fun path ->
  let lock = path ^ ".lock" in
  let fd = Unix.openfile lock [ Unix.O_CREAT; Unix.O_EXCL; Unix.O_WRONLY ] 0o644 in
  Unix.close fd;
  let saved = Sys.getenv_opt "SMT_LOCK_STALE_MS" in
  Unix.putenv "SMT_LOCK_STALE_MS" "50";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "SMT_LOCK_STALE_MS" (Option.value saved ~default:""))
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  Ledger.append path (sample_record ~time:1000.0 1.0);
  let waited = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "broke within ~the configured threshold" true (waited < 5.);
  match Ledger.read path with
  | Error e -> Alcotest.fail e
  | Ok { Ledger.records; _ } ->
    Alcotest.(check int) "append landed" 1 (List.length records)

(* ------------------------------------------------------------------ *)
(* Trend                                                               *)
(* ------------------------------------------------------------------ *)

let test_trend_steady () =
  let records = List.map (fun t -> sample_record ~time:t 10.0) [ 1.0; 2.0; 3.0 ] in
  let series = Trend.analyze records in
  Alcotest.(check bool) "qor series present" true (series <> []);
  List.iter
    (fun s ->
      Alcotest.(check string) "qor_only by default" "qor."
        (String.sub s.Trend.sr_field 0 4);
      Alcotest.(check int) "three points" 3 (List.length s.Trend.sr_points);
      Alcotest.(check string) "steady" "steady" (Trend.status_name s.Trend.sr_status))
    series;
  Alcotest.(check bool) "no regressions" false (Trend.has_regressions records)

let test_trend_regression_and_order () =
  (* records arrive out of time order; the series must still read 10 -> 11,
     and the QoR move is a Regression under Snapshot.compare's rules *)
  let r0 = sample_record ~time:1000.0 10.0 in
  let r1 = sample_record ~time:2000.0 11.0 in
  let records = [ r1; r0 ] in
  let series = Trend.analyze ~metric:"qor.area_um2" records in
  (match series with
  | [ s ] ->
    Alcotest.(check (list (float 1e-9))) "points in time order" [ 10.0; 11.0 ]
      (List.map (fun p -> p.Trend.p_value) s.Trend.sr_points);
    Alcotest.(check string) "flagged" "REGRESSION" (Trend.status_name s.Trend.sr_status)
  | l -> Alcotest.fail (Printf.sprintf "expected one series, got %d" (List.length l)));
  Alcotest.(check bool) "has_regressions" true (Trend.has_regressions records);
  let regs = Trend.regressions records in
  Alcotest.(check bool) "pair ids reported" true
    (List.exists (fun (a, b, _) -> a = r0.Ledger.r_id && b = r1.Ledger.r_id) regs);
  check_contains "rendered regression names the pair" r0.Ledger.r_id
    (Trend.render_regressions records)

let test_trend_filters_and_json () =
  let records = List.map (fun t -> sample_record ~time:t 10.0) [ 1.0; 2.0 ] in
  let all = Trend.analyze ~qor_only:false records in
  Alcotest.(check bool) "counters included" true
    (List.exists (fun s -> s.Trend.sr_field = "counter.sta.arrival_evals") all);
  Alcotest.(check bool) "stage wall-clock included" true
    (List.exists (fun s -> s.Trend.sr_field = "stage_ms.replace") all);
  let only_counters = Trend.analyze ~metric:"counter." records in
  Alcotest.(check bool) "metric substring filters" true
    (only_counters <> []
    && List.for_all (fun s -> contains ~needle:"counter." s.Trend.sr_field) only_counters);
  Alcotest.(check (list reject)) "workload filter can empty"
    []
    (Trend.analyze ~workload:"nonexistent" records);
  let json = Trend.to_json (Trend.analyze records) in
  (match Obs_json.parse json with
  | Error e -> Alcotest.fail e
  | Ok (Obs_json.Arr items) ->
    Alcotest.(check bool) "one object per series" true (items <> [])
  | Ok _ -> Alcotest.fail "trend json is not an array");
  check_contains "render mentions the workload" "circuit_a/improved"
    (Trend.render (Trend.analyze records))

let test_trend_of_snapshot_dir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "smt_trend_%d" (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let snap tag v =
        Snapshot.make ~tag
          [ Snapshot.workload ~name:"w" ~qor:[ ("x", v) ] ~counters:[] ~stage_ms:[] ]
      in
      Snapshot.write (Filename.concat dir "a.json") (snap "a" 1.0);
      Snapshot.write (Filename.concat dir "b.json") (snap "b" 1.0);
      match Trend.of_snapshot_dir dir with
      | Error e -> Alcotest.fail e
      | Ok records -> (
        Alcotest.(check int) "one record per snapshot" 2 (List.length records);
        match Trend.analyze records with
        | [ s ] ->
          Alcotest.(check (list (float 1e-9))) "filename order gives the times"
            [ 0.0; 1.0 ]
            (List.map (fun p -> p.Trend.p_time) s.Trend.sr_points)
        | l -> Alcotest.fail (Printf.sprintf "expected one series, got %d" (List.length l))))

(* ------------------------------------------------------------------ *)
(* Flame: folded stacks from trace spans                               *)
(* ------------------------------------------------------------------ *)

let flame_of_string s =
  match Obs_json.parse s with
  | Error e -> Alcotest.fail e
  | Ok doc -> (
    match Flame.of_trace_json doc with Error e -> Alcotest.fail e | Ok folded -> folded)

let trace_json spans =
  Printf.sprintf {|{"traceEvents":[%s]}|}
    (String.concat ","
       (List.map
          (fun (name, ts, dur, tid) ->
            Printf.sprintf
              {|{"name":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d}|}
              name ts dur tid)
          spans))

let test_flame_nesting_and_self_time () =
  let folded =
    flame_of_string
      (trace_json
         [
           ("root", 0.0, 100.0, 1);
           ("child1", 10.0, 20.0, 1);
           ("child2", 40.0, 20.0, 1);
         ])
  in
  Alcotest.(check (float 1e-6)) "root self = dur - children" 60.0
    (List.assoc "root" folded);
  Alcotest.(check (float 1e-6)) "nested path" 20.0 (List.assoc "root;child1" folded);
  Alcotest.(check (float 1e-6)) "second child same depth" 20.0
    (List.assoc "root;child2" folded)

let test_flame_adjacent_stages_are_siblings () =
  (* mark-delimited stages print ts and dur with independent %.3f rounding,
     so a successor can appear to start 1 lsb inside its predecessor: the
     eps containment test must still read them as siblings *)
  let folded =
    flame_of_string
      (trace_json [ ("a", 0.0, 50.0, 1); ("b", 49.999, 50.0, 1) ])
  in
  Alcotest.(check bool) "no false nesting" false (List.mem_assoc "a;b" folded);
  Alcotest.(check (float 1e-6)) "a keeps its own time" 50.0 (List.assoc "a" folded);
  Alcotest.(check (float 1e-6)) "b keeps its own time" 50.0 (List.assoc "b" folded)

let test_flame_merges_across_tids () =
  let folded =
    flame_of_string
      (trace_json [ ("job", 0.0, 10.0, 2); ("job", 0.0, 15.0, 3) ])
  in
  Alcotest.(check (float 1e-6)) "identical paths merge across tids" 25.0
    (List.assoc "job" folded)

let test_flame_render () =
  let out =
    Flame.render [ ("a;b", 12.4); ("c", 3.6); ("d", 0.2) ]
  in
  Alcotest.(check string) "integer-microsecond lines, sub-1us dropped"
    "a;b 12\nc 4\n" out

(* ------------------------------------------------------------------ *)
(* Snapshot: workload churn reporting                                  *)
(* ------------------------------------------------------------------ *)

let test_snapshot_workload_churn () =
  let w name =
    Snapshot.workload ~name ~qor:[ ("x", 1.0) ] ~counters:[] ~stage_ms:[]
  in
  let baseline = Snapshot.make ~tag:"b" [ w "kept"; w "gone" ] in
  let current = Snapshot.make ~tag:"c" [ w "kept"; w "fresh" ] in
  let deltas = Snapshot.compare ~baseline ~current in
  let find wname =
    List.find_opt
      (fun (d : Snapshot.delta) ->
        d.Snapshot.d_workload = wname && d.Snapshot.d_field = "workload")
      deltas
  in
  (match find "gone" with
  | None -> Alcotest.fail "disappeared workload not reported"
  | Some d ->
    Alcotest.(check bool) "disappearance is a regression" true
      (d.Snapshot.d_severity = Snapshot.Regression);
    Alcotest.(check bool) "no current value" true (d.Snapshot.d_current = None));
  (match find "fresh" with
  | None -> Alcotest.fail "new workload not reported"
  | Some d ->
    Alcotest.(check bool) "addition is advisory" true
      (d.Snapshot.d_severity = Snapshot.Advisory);
    Alcotest.(check bool) "no baseline value" true (d.Snapshot.d_baseline = None));
  let summary = Snapshot.render deltas in
  check_contains "summary counts disappearances" "disappeared" summary;
  check_contains "summary counts additions" "new workload" summary

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "telemetry"
    [
      ( "quantiles",
        [
          Alcotest.test_case "linear interpolation" `Quick test_quantile_interpolation;
          Alcotest.test_case "empty and +inf buckets" `Quick test_quantile_edges;
          Alcotest.test_case "before/after hit deltas" `Quick
            test_quantile_of_hits_delta;
          Alcotest.test_case "snapshot and json expose p50/p90/p99" `Quick
            test_snapshot_and_json_quantiles;
        ] );
      ( "prof",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_prof_disabled_is_noop;
          Alcotest.test_case "span records allocation" `Quick
            test_prof_span_records_allocation;
          Alcotest.test_case "stage spans carry GC args" `Quick test_stage_span_gc_args;
          Alcotest.test_case "stats json round-trip" `Quick
            test_prof_stats_json_roundtrip;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "line round-trip" `Quick test_ledger_line_roundtrip;
          Alcotest.test_case "golden line bytes" `Quick test_ledger_golden_line;
          Alcotest.test_case "read of a directory is an error" `Quick
            test_ledger_read_directory;
          Alcotest.test_case "gc of a directory is an error" `Quick
            test_ledger_gc_directory;
          Alcotest.test_case "deterministic ids" `Quick test_ledger_id_deterministic;
          Alcotest.test_case "truncated tail tolerated" `Quick
            test_ledger_truncated_tail;
          Alcotest.test_case "gc --keep and find" `Quick test_ledger_gc_keep_and_find;
          Alcotest.test_case "stale lock broken by age" `Quick
            test_ledger_stale_lock_broken;
          Alcotest.test_case "SMT_LOCK_STALE_MS overrides threshold" `Quick
            test_ledger_stale_lock_threshold_env;
        ] );
      ( "trend",
        [
          Alcotest.test_case "steady series" `Quick test_trend_steady;
          Alcotest.test_case "regression across pairs, time order" `Quick
            test_trend_regression_and_order;
          Alcotest.test_case "filters and json" `Quick test_trend_filters_and_json;
          Alcotest.test_case "snapshot directory source" `Quick
            test_trend_of_snapshot_dir;
        ] );
      ( "flame",
        [
          Alcotest.test_case "nesting and self time" `Quick
            test_flame_nesting_and_self_time;
          Alcotest.test_case "adjacent stages stay siblings" `Quick
            test_flame_adjacent_stages_are_siblings;
          Alcotest.test_case "cross-tid merge" `Quick test_flame_merges_across_tids;
          Alcotest.test_case "folded render" `Quick test_flame_render;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "workload churn reported" `Quick
            test_snapshot_workload_churn;
        ] );
    ]
