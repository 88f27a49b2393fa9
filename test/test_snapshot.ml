(* Tests for the QoR snapshot format and the bench-compare classification:
   serialization must round-trip QoR floats exactly, and the comparator
   must fail the gate on QoR/counter drift while keeping wall-clock moves
   advisory. *)

module Snapshot = Smt_obs.Snapshot

let wl ?(qor = [ ("area_um2", 1234.5678901234567); ("wns_ps", 42.0) ])
    ?(counters = [ ("sta.analyses", 18); ("place.moves", 10368) ])
    ?(stage_ms = [ ("synthesis", 12.5); ("routing", 30.25) ]) name =
  Snapshot.workload ~name ~qor ~counters ~stage_ms

let snap ?(tag = "test") workloads = Snapshot.make ~tag workloads

let base () = snap [ wl "a/dual"; wl "a/improved" ]

let check_clean label deltas =
  Alcotest.(check int) (label ^ ": no deltas") 0 (List.length deltas);
  Alcotest.(check bool) (label ^ ": passes") false (Snapshot.has_regressions deltas)

let fields deltas = List.map (fun d -> d.Snapshot.d_field) deltas

(* --- serialization --- *)

let test_roundtrip () =
  let s =
    snap ~tag:"rt"
      [
        wl "w1"
          ~qor:[ ("exact_third", 1.0 /. 3.0); ("tiny", 1.2345678901234e-17); ("neg", -0.1) ]
          ~counters:[ ("c.one", 1); ("c.big", 123456789) ]
          ~stage_ms:[ ("s1", 0.0); ("s2", 1e3) ];
        wl "w2 \"quoted\\name\"" ~qor:[] ~counters:[] ~stage_ms:[];
      ]
  in
  match Snapshot.of_json (Snapshot.to_json s) with
  | Error e -> Alcotest.fail e
  | Ok s' ->
    Alcotest.(check int) "version" Snapshot.schema_version s'.Snapshot.s_version;
    Alcotest.(check string) "tag" "rt" s'.Snapshot.s_tag;
    Alcotest.(check bool) "workloads identical after the round-trip" true
      (s = s');
    check_clean "roundtrip compares clean" (Snapshot.compare ~baseline:s ~current:s')

let test_write_read_file () =
  let path = Filename.temp_file "snap" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let s = base () in
      Snapshot.write path s;
      match Snapshot.read path with
      | Error e -> Alcotest.fail e
      | Ok s' ->
        check_clean "file round-trip compares clean" (Snapshot.compare ~baseline:s ~current:s'));
  match Snapshot.read "/nonexistent/snapshot.json" with
  | Ok _ -> Alcotest.fail "reading a missing file succeeded"
  | Error _ -> ()

(* [open_in] succeeds on a directory; the failing read after it must come
   back as [Error] (bench-compare's exit 2), not escape as [Sys_error]. *)
let test_read_directory () =
  match Snapshot.read (Filename.get_temp_dir_name ()) with
  | Ok _ -> Alcotest.fail "read a directory as a snapshot"
  | Error _ -> ()

(* Per-stage GC attribution rides the workload as a trailing "prof"
   object, only when recorded, and never gates. *)
let test_prof_serialized_not_compared () =
  let s = base () in
  let stats minor =
    {
      Smt_obs.Prof.minor_words = minor;
      promoted_words = 0.;
      major_words = 8.;
      minor_collections = 1;
      major_collections = 0;
      compactions = 0;
      top_heap_words = 1024;
    }
  in
  let profiled minor =
    {
      s with
      Snapshot.s_workloads =
        List.map
          (fun w -> { w with Snapshot.w_prof = [ ("replace", stats minor) ] })
          s.Snapshot.s_workloads;
    }
  in
  let plain = Snapshot.workload_json (wl "a/dual") in
  Alcotest.(check string) "prof trails the other fields"
    (String.sub plain 0 (String.length plain - 1)
    ^ ",\"prof\":{\"replace\":" ^ Smt_obs.Prof.stats_json (stats 100.) ^ "}}")
    (Snapshot.workload_json { (wl "a/dual") with Snapshot.w_prof = [ ("replace", stats 100.) ] });
  Alcotest.(check bool) "unprofiled ends at stage_ms, no prof key" true
    (String.ends_with ~suffix:"]}" plain);
  (match Snapshot.of_json (Snapshot.to_json (profiled 100.)) with
  | Error e -> Alcotest.fail e
  | Ok s' ->
    Alcotest.(check bool) "prof round-trips" true (s' = profiled 100.));
  check_clean "prof never compared"
    (Snapshot.compare ~baseline:(profiled 100.) ~current:(profiled 900.));
  check_clean "profiled vs unprofiled compares clean"
    (Snapshot.compare ~baseline:s ~current:(profiled 900.))

(* A mistyped field is rejected at its JSON location, which names the
   workload's index; integers must be integral and below 2^53. *)
let test_rejects_at_location () =
  let text = Snapshot.to_json (base ()) in
  List.iter
    (fun (before, value, path) ->
      Json_input.check_rejects_ints ~read:Snapshot.of_json ~source:"snapshot" ~before ~value
        ~path text)
    [
      ({|"schema_version":|}, "1", "$.schema_version");
      ( {|improved","qor":{"area_um2":1234.5678901234567,"wns_ps":42},|}
        ^ {|"counters":{"place.moves":10368,"sta.analyses":|},
        "18",
        "$.workloads[1].counters.sta.analyses" );
    ];
  Alcotest.(check (result reject string)) "a QoR string"
    (Error "snapshot: $.workloads[0].qor.wns_ps: not a number")
    (Snapshot.of_json (Json_input.replace ~sub:{|"wns_ps":42|} ~by:{|"wns_ps":"42"|} text));
  let path = Filename.temp_file "snap" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Smt_obs.Obs_json.to_file path (Json_input.replace ~sub:{|"tag":"test"|} ~by:{|"tag":7|} text);
      Alcotest.(check (result reject string)) "a file names its path"
        (Error (path ^ ": $.tag: not a string"))
        (Snapshot.read path))

let test_workload_fields_sorted () =
  let w =
    Snapshot.workload ~name:"w"
      ~qor:[ ("zz", 1.0); ("aa", 2.0) ]
      ~counters:[ ("z", 1); ("a", 2) ]
      ~stage_ms:[ ("later", 1.0); ("earlier", 2.0) ]
  in
  Alcotest.(check (list string)) "qor sorted" [ "aa"; "zz" ] (List.map fst w.Snapshot.w_qor);
  Alcotest.(check (list string)) "counters sorted" [ "a"; "z" ]
    (List.map fst w.Snapshot.w_counters);
  Alcotest.(check (list string)) "stage order preserved" [ "later"; "earlier" ]
    (List.map fst w.Snapshot.w_stage_ms)

(* --- comparison classification --- *)

let test_identical_clean () =
  check_clean "identical snapshots" (Snapshot.compare ~baseline:(base ()) ~current:(base ()))

let test_qor_drift_is_regression () =
  let current =
    snap [ wl "a/dual" ~qor:[ ("area_um2", 1235.0); ("wns_ps", 42.0) ]; wl "a/improved" ]
  in
  let deltas = Snapshot.compare ~baseline:(base ()) ~current in
  Alcotest.(check bool) "gate fails" true (Snapshot.has_regressions deltas);
  match Snapshot.regressions deltas with
  | [ d ] ->
    Alcotest.(check string) "workload" "a/dual" d.Snapshot.d_workload;
    Alcotest.(check string) "field" "qor.area_um2" d.Snapshot.d_field
  | ds -> Alcotest.failf "expected one regression, got %d" (List.length ds)

let test_qor_serialization_guard () =
  (* a relative wiggle far below the 1e-9 guard must not trip the gate *)
  let v = 1234.5678901234567 in
  let current =
    snap [ wl "a/dual" ~qor:[ ("area_um2", v *. (1.0 +. 1e-13)); ("wns_ps", 42.0) ]; wl "a/improved" ]
  in
  check_clean "sub-tolerance wiggle" (Snapshot.compare ~baseline:(base ()) ~current)

let test_nan_qor_equal () =
  let b = snap [ wl "w" ~qor:[ ("wns_ps", Float.nan) ] ] in
  let c = snap [ wl "w" ~qor:[ ("wns_ps", Float.nan) ] ] in
  check_clean "nan compares equal to nan" (Snapshot.compare ~baseline:b ~current:c)

let test_counter_change_is_regression () =
  let current =
    snap
      [ wl "a/dual" ~counters:[ ("sta.analyses", 19); ("place.moves", 10368) ]; wl "a/improved" ]
  in
  let deltas = Snapshot.compare ~baseline:(base ()) ~current in
  (match Snapshot.regressions deltas with
  | [ d ] -> Alcotest.(check string) "field" "counter.sta.analyses" d.Snapshot.d_field
  | ds -> Alcotest.failf "expected one regression, got %d" (List.length ds));
  Alcotest.(check bool) "gate fails" true (Snapshot.has_regressions deltas)

let test_counter_missing_is_regression () =
  let current =
    snap [ wl "a/dual" ~counters:[ ("sta.analyses", 18) ]; wl "a/improved" ]
  in
  let deltas = Snapshot.compare ~baseline:(base ()) ~current in
  Alcotest.(check bool) "gate fails" true (Snapshot.has_regressions deltas);
  Alcotest.(check (list string)) "the missing counter is named" [ "counter.place.moves" ]
    (fields (Snapshot.regressions deltas))

let test_stage_ms_is_advisory () =
  let current =
    snap
      [ wl "a/dual" ~stage_ms:[ ("synthesis", 40.0); ("routing", 90.0) ]; wl "a/improved" ]
  in
  let deltas = Snapshot.compare ~baseline:(base ()) ~current in
  Alcotest.(check bool) "gate passes" false (Snapshot.has_regressions deltas);
  Alcotest.(check int) "both stages flagged" 2 (List.length deltas);
  List.iter
    (fun d ->
      Alcotest.(check bool) "advisory severity" true (d.Snapshot.d_severity = Snapshot.Advisory))
    deltas

let test_stage_ms_noise_floor () =
  (* both sides under the floor: a 4x ratio is still scheduler noise *)
  let b = snap [ wl "w" ~stage_ms:[ ("s", 1.0) ] ] in
  let c = snap [ wl "w" ~stage_ms:[ ("s", 4.0) ] ] in
  check_clean "sub-floor wall-clock" (Snapshot.compare ~baseline:b ~current:c);
  (* small ratio above the floor: fine too *)
  let b = snap [ wl "w" ~stage_ms:[ ("s", 100.0) ] ] in
  let c = snap [ wl "w" ~stage_ms:[ ("s", 130.0) ] ] in
  check_clean "sub-ratio wall-clock" (Snapshot.compare ~baseline:b ~current:c)

let test_missing_workload_is_regression () =
  let deltas = Snapshot.compare ~baseline:(base ()) ~current:(snap [ wl "a/dual" ]) in
  (match Snapshot.regressions deltas with
  | [ d ] ->
    Alcotest.(check string) "workload named" "a/improved" d.Snapshot.d_workload;
    Alcotest.(check string) "field" "workload" d.Snapshot.d_field
  | ds -> Alcotest.failf "expected one regression, got %d" (List.length ds));
  Alcotest.(check bool) "gate fails" true (Snapshot.has_regressions deltas)

let test_added_workload_is_advisory () =
  let current = snap [ wl "a/dual"; wl "a/improved"; wl "b/new" ] in
  let deltas = Snapshot.compare ~baseline:(base ()) ~current in
  Alcotest.(check bool) "gate passes" false (Snapshot.has_regressions deltas);
  match deltas with
  | [ d ] -> Alcotest.(check string) "new workload named" "b/new" d.Snapshot.d_workload
  | ds -> Alcotest.failf "expected one advisory, got %d" (List.length ds)

let test_version_mismatch_is_regression () =
  let baseline = { (base ()) with Snapshot.s_version = Snapshot.schema_version + 1 } in
  let deltas = Snapshot.compare ~baseline ~current:(base ()) in
  Alcotest.(check bool) "gate fails" true (Snapshot.has_regressions deltas);
  match deltas with
  | d :: _ -> Alcotest.(check string) "version checked first" "schema_version" d.Snapshot.d_field
  | [] -> Alcotest.fail "no deltas"

let test_render_summary () =
  let current =
    snap [ wl "a/dual" ~qor:[ ("area_um2", 1.0); ("wns_ps", 42.0) ] ]
  in
  let deltas = Snapshot.compare ~baseline:(base ()) ~current in
  let out = Snapshot.render deltas in
  let contains needle =
    let nh = String.length out and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub out i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions REGRESSION" true (contains "REGRESSION");
  Alcotest.(check bool) "has summary line" true (contains "bench-compare:")

let () =
  Alcotest.run "snapshot"
    [
      ( "serialization",
        [
          Alcotest.test_case "json round-trip" `Quick test_roundtrip;
          Alcotest.test_case "file write/read" `Quick test_write_read_file;
          Alcotest.test_case "read of a directory is an error" `Quick test_read_directory;
          Alcotest.test_case "prof serialized, never compared" `Quick
            test_prof_serialized_not_compared;
          Alcotest.test_case "field ordering" `Quick test_workload_fields_sorted;
          Alcotest.test_case "bad fields rejected at their location" `Quick
            test_rejects_at_location;
        ] );
      ( "compare",
        [
          Alcotest.test_case "identical is clean" `Quick test_identical_clean;
          Alcotest.test_case "qor drift fails" `Quick test_qor_drift_is_regression;
          Alcotest.test_case "serialization guard" `Quick test_qor_serialization_guard;
          Alcotest.test_case "nan equals nan" `Quick test_nan_qor_equal;
          Alcotest.test_case "counter change fails" `Quick test_counter_change_is_regression;
          Alcotest.test_case "counter missing fails" `Quick test_counter_missing_is_regression;
          Alcotest.test_case "wall-clock advisory" `Quick test_stage_ms_is_advisory;
          Alcotest.test_case "wall-clock noise floor" `Quick test_stage_ms_noise_floor;
          Alcotest.test_case "missing workload fails" `Quick test_missing_workload_is_regression;
          Alcotest.test_case "added workload advisory" `Quick test_added_workload_is_advisory;
          Alcotest.test_case "version mismatch fails" `Quick test_version_mismatch_is_regression;
          Alcotest.test_case "render summary" `Quick test_render_summary;
        ] );
    ]
